"""Property tests: tau is associative with identity on random limit-ring
elements, and sigma_n is a ring map onto random level-n elements."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.freering import Alphabet  # noqa: E402
from dpinv.gamma import (GammaElement, enumerate_dp_monomials,  # noqa: E402
                         sigma_n, tau)
from dpinv.theorems import multidegrees  # noqa: E402

AB = Alphabet("xy")
MAX_DEGREE = 5
# (total degree, monomial) over the limit-ring basis of degree 0..5
MONOMIALS = [(sum(d), m) for d in multidegrees(2, MAX_DEGREE)
             for m in enumerate_dp_monomials(d, None)]


def elements(max_degree, level=None):
    """Integer combinations of monomials of degree <= max_degree."""
    pool = [m for t, m in MONOMIALS if t <= max_degree
            and (level is None or m.weight <= level)]
    terms = st.dictionaries(st.sampled_from(pool),
                            st.integers(-3, 3).filter(bool), max_size=3)
    return terms.map(lambda t: GammaElement(t, level))


@st.composite
def triples(draw):
    """(a, b, c) with deg a + deg b + deg c <= 5."""
    da = draw(st.integers(0, MAX_DEGREE))
    db = draw(st.integers(0, MAX_DEGREE - da))
    return (draw(elements(da)), draw(elements(db)),
            draw(elements(MAX_DEGREE - da - db)))


@settings(max_examples=40, deadline=None)
@given(triples())
def test_tau_is_associative_with_identity(abc):
    a, b, c = abc
    one = GammaElement.one(None)
    assert tau(tau(a, b), c) == tau(a, tau(b, c))
    assert tau(one, a) == a == tau(a, one)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), triples())
def test_sigma_n_is_a_ring_map(n, abc):
    # limit-ring elements, so terms of weight above n are among them and
    # must drop out of the level-n product the same way
    a, b, _ = abc
    sa, sb = sigma_n(a, n), sigma_n(b, n)
    assert sa.level == n and all(m.weight <= n for m in sa.terms)
    assert sigma_n(tau(a, b), n) == tau(sa, sb)
    assert sigma_n(a + b, n) == sa + sb
    assert sigma_n(GammaElement.one(None), n) == GammaElement.one(n)
