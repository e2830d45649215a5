"""Property test: the memoized monomial table evaluates packed polynomials
exactly like a per-term oracle on unpacked exponents."""

from math import prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.freering import Alphabet  # noqa: E402
from dpinv.invariants import CommPoly, PolyRing  # noqa: E402

RING = PolyRing(Alphabet("xy"), 3)  # 18 variables, keys of 144 bits


def oracle(p: CommPoly, values) -> int:
    return sum(c * prod(v ** e for v, e in zip(values, p.ring.unpack(k)))
               for k, c in p.terms.items())


# exponent vectors that reuse a few variables at small and large powers,
# with the all-zero vector (the constant key 0) among them
exponents = st.lists(st.tuples(st.integers(0, RING.nvars - 1),
                               st.sampled_from((1, 2, 3, 7, 127))),
                     max_size=5)


def to_key(pairs) -> int:
    exps = [0] * RING.nvars
    for idx, e in pairs:
        exps[idx] = e
    return RING.pack(exps)


polys = st.dictionaries(exponents.map(to_key), st.integers(-9, 9),
                        max_size=12).map(lambda t: CommPoly(RING, t))
points = st.lists(st.integers(-4, 4), min_size=RING.nvars,
                  max_size=RING.nvars)


@settings(max_examples=60, deadline=None)
@given(st.lists(polys, min_size=1, max_size=4), points)
def test_monomial_table_matches_per_term_oracle(ps, values):
    table = RING.monomial_values(set().union(*(p.terms for p in ps)), values)
    for p in ps:
        want = oracle(p, values)
        assert p.evaluate(values) == want
        assert p.value_in(table) == want
    assert table[0] == 1
