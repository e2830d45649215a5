"""Property tests: exact rank against Fraction elimination and the Smith
form against sympy, on random small integer matrices with and without unit
entries, with repeated and zero rows."""

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from dpinv.backend import bareiss_rank  # noqa: E402
from dpinv.exactla import ExactMatrix  # noqa: E402
from test_exactla import fraction_gauss_rank  # noqa: E402

# entries without +-1 leave the whole matrix to the dense remainder loops
NO_UNITS = st.sampled_from([0, 2, -2, 3, -3, 6, -6])


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = draw(st.sampled_from([st.integers(-6, 6), NO_UNITS]))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    copies = draw(st.lists(st.sampled_from(range(nrows)), max_size=2))
    return rows + [list(rows[i]) for i in copies]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_fraction_gauss(rows):
    assert bareiss_rank(rows) == fraction_gauss_rank(rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_smith_matches_sympy(rows):
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    expected = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
    assert ExactMatrix(rows).smith_normal_form() == expected
