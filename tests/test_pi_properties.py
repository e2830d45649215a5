"""Property tests: the pairing is a ring map on random level-3 elements,
and Amitsur's formula agrees with the mixed-minor oracle on random basis
monomials."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.freering import Alphabet  # noqa: E402
from dpinv.gamma import GammaElement, enumerate_dp_monomials, tau  # noqa: E402
from dpinv.invariants import MatrixInvariants  # noqa: E402
from dpinv.theorems import multidegrees  # noqa: E402
from test_invariants import pi_oracle  # noqa: E402

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


@st.composite
def basis_monomials(draw):
    """(letters, n, m): m a level-n basis monomial over two or three letters
    of total degree 1..5 (1..4 at n=4)."""
    letters = draw(st.sampled_from(("xy", "xyz")))
    n = draw(st.integers(1, 4))
    cells = [d for d in multidegrees(len(letters), 4 if n == 4 else 5)
             if any(d)]
    d = draw(st.sampled_from(cells))
    return letters, n, draw(st.sampled_from(enumerate_dp_monomials(d, n)))


@settings(max_examples=60, deadline=None)
@given(basis_monomials())
def test_pi_monomial_matches_mixed_minors(lnm):
    letters, n, m = lnm
    ctx = MatrixInvariants.get(Alphabet(letters), n)
    assert ctx.pi_monomial(m) == pi_oracle(ctx, m), m
