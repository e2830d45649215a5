"""Property test: ``multisets`` lists exactly the choices of a brute-force
filter over every exponent vector, in the same order, for items in any
order and with or without a bound on the count."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.freering import multisets  # noqa: E402

from test_freering import multisets_oracle  # noqa: E402


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 2)] * dim)
    degs = draw(st.lists(vector.filter(any), max_size=5))
    d = draw(vector)
    max_count = draw(st.none() | st.integers(0, 4))
    return degs, d, max_count


@settings(max_examples=200, deadline=None)
@given(cases())
def test_multisets_match_brute_force(case):
    degs, d, max_count = case
    assert list(multisets(degs, d, max_count)) == \
        multisets_oracle(degs, d, max_count)
