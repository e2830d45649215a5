"""Property tests: tau is associative with identity on random limit-ring
elements, sigma_n is a ring map onto random level-n elements, and the tau
kernel agrees with the full-margin oracle on random monomial pairs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpinv.freering import Alphabet, word_from_str  # noqa: E402
from dpinv.gamma import (DPMonomial, GammaElement,  # noqa: E402
                         enumerate_dp_monomials, sigma_n, tau, tau_monomials)
from dpinv.theorems import multidegrees  # noqa: E402
from test_gamma import full_margin_tau_oracle  # noqa: E402

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


# concatenations of these collide with each other and with the words
# themselves (x.yx = xy.x = xyx, x.x = xx, ...), so the kernel's slot merges
# and their binomial factors are exercised
COLLIDING = [word_from_str(t, AB) for t in ("x", "y", "xy", "yx", "xx", "xyx")]


@st.composite
def monomial_pairs(draw, max_degree=6):
    """(u, v) over COLLIDING with deg u + deg v <= max_degree."""
    budget = max_degree
    pair = []
    for _ in range(2):
        factors = []
        for w in draw(st.lists(st.sampled_from(COLLIDING), unique=True,
                               max_size=3)):
            if budget >= len(w):
                e = draw(st.integers(1, budget // len(w)))
                factors.append((w, e))
                budget -= e * len(w)
        pair.append(DPMonomial(factors))
    return tuple(pair)


X, XX, XY, YX = (word_from_str(t, AB) for t in ("x", "xx", "xy", "yx"))


@settings(max_examples=60, deadline=None)
@given(monomial_pairs(), st.integers(1, 3))
# two interior cells on one word: x.yx = xy.x
@example((DPMonomial([(X, 1), (XY, 1)]), DPMonomial([(X, 1), (YX, 1)])), 1)
# a row's slack on the word of an earlier cell, x.x = xx, before the last row
@example((DPMonomial([(X, 1), (XX, 1), (XY, 1)]), DPMonomial([(X, 1)])), 2)
def test_tau_kernel_matches_full_margin_oracle(uv, drop):
    u, v = uv
    limit = tau_monomials(u, v)
    assert all(c > 0 for c in limit.terms.values())
    for m in limit.terms:
        # built by the trusted constructor: a validated copy is the same
        # interned object, which a factor out of order would not be
        assert m is DPMonomial(m.factors)
        assert m.weight == sum(e for _, e in m.factors)
    full = u.weight + v.weight
    # at the full weight nothing truncates; below it, the identity-identity
    # cell of the oracle absorbs the weight that the truncation drops
    for n in sorted({full, max(u.weight, v.weight, full - drop)}):
        gu, gv = GammaElement.monomial(u, n), GammaElement.monomial(v, n)
        assert tau(gu, gv) == full_margin_tau_oracle(u, v, n), (n, u, v)
    assert GammaElement(limit.terms, full) == full_margin_tau_oracle(u, v, full)
