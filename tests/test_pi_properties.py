"""Property test: the pairing is a ring map on random level-3 elements."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.freering import Alphabet  # noqa: E402
from dpinv.gamma import GammaElement, enumerate_dp_monomials, tau  # noqa: E402
from dpinv.invariants import MatrixInvariants  # noqa: E402
from dpinv.theorems import multidegrees  # noqa: E402

AB = Alphabet("xy")
N = 3
MAX_DEGREE = 4
# (total degree, monomial) over the level-3 basis of degree 1..4
MONOMIALS = [(sum(d), m) for d in multidegrees(2, MAX_DEGREE) if any(d)
             for m in enumerate_dp_monomials(d, N)]


def elements(max_degree):
    """Integer combinations of level-3 monomials of degree <= max_degree."""
    pool = [m for t, m in MONOMIALS if t <= max_degree]
    terms = st.dictionaries(st.sampled_from(pool),
                            st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=3)
    return terms.map(lambda t: GammaElement(t, N))


@st.composite
def pairs(draw):
    """(a, b) with deg a + deg b <= 4, so tau stays in small cells."""
    da = draw(st.integers(1, MAX_DEGREE - 1))
    return draw(elements(da)), draw(elements(MAX_DEGREE - da))


@settings(max_examples=30, deadline=None)
@given(pairs())
def test_pi_is_multiplicative_on_random_level3_elements(ab):
    a, b = ab
    ctx = MatrixInvariants.get(AB, N)
    assert ctx.pi_n_eval(tau(a, b)) == ctx.pi_n_eval(a) * ctx.pi_n_eval(b)
