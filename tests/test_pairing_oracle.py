"""The pairing against sympy's expansion of the parametric determinant.

pi(prod_k w_k^(a_k)) is the coefficient of t0^(n-|a|) prod_k tk^(a_k) in
det(t0 I + sum_k tk M_{w_k}).  dpinv never forms that determinant; here
sympy expands it in its own polynomial ring ZZ[x..., t...], and every
coefficient is compared with the library.
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from dpinv.freering import Alphabet, word_from_str  # noqa: E402
from dpinv.gamma import DPMonomial, enumerate_dp_monomials  # noqa: E402
from dpinv.invariants import MatrixInvariants, mixed_minor_sum  # noqa: E402
from dpinv.theorems import multidegrees  # noqa: E402
from test_invariants import multidet_coeff  # noqa: E402

AB = Alphabet("xy")


def word_sym(ring, R, w):
    """The generic-matrix image of a word, over the sympy ring R."""
    n = ring.n
    m = DomainMatrix.eye(n, R)
    for a in w:
        m = m * DomainMatrix([[R.gens[ring.x_index(a, i + 1, j + 1)]
                               for j in range(n)] for i in range(n)],
                             (n, n), R)
    return m


def coefficient(ring, words, exponents):
    """The t-coefficient, read from sympy's expansion of the determinant,
    as {x exponent tuple: coefficient}."""
    n, nx = ring.n, ring.nvars
    # ZZ[x..., t0, t1, ...]: the x come first, in dpinv's variable order
    R = sympy.ZZ[sympy.symbols(list(ring.names)
                               + [f"t{k}" for k in range(len(words) + 1)])]
    ts = R.gens[nx:]
    param = DomainMatrix.eye(n, R) * ts[0]
    for t, w in zip(ts[1:], words):
        param = param + word_sym(ring, R, w) * t
    target = (n - sum(exponents),) + tuple(exponents)
    return {monom[:nx]: c for monom, c in param.det().terms()
            if monom[nx:] == target}


def as_dict(ring, p):
    return {ring.unpack(k): c for k, c in p.terms.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi_monomial_matches_parametric_determinant(n):
    ctx = MatrixInvariants.get(AB, n)
    ring = ctx.ring
    checked = 0
    for d in multidegrees(2, 3):
        for m in enumerate_dp_monomials(d, n):
            want = coefficient(ring, [w for w, _ in m.factors],
                               [e for _, e in m.factors])
            assert as_dict(ring, ctx.pi_monomial(m)) == want, m
            checked += 1
    assert checked == {1: 15, 2: 26, 3: 30}[n]


def test_pi_monomial_of_a_periodic_concatenation():
    # xy^(1) xyxy^(1): the Lyndon word of both factors concatenates them to
    # xyxyxy = (xy)^3, so pi normalizes a proper power
    ctx = MatrixInvariants.get(AB, 2)
    words = [word_from_str(s, AB) for s in ("xy", "xyxy")]
    m = DPMonomial((w, 1) for w in words)
    want = coefficient(ctx.ring, words, (1, 1))
    assert want
    assert as_dict(ctx.ring, ctx.pi_monomial(m)) == want


@pytest.mark.parametrize("exponents", [(1, 1, 1), (2, 1, 0)])
def test_multidet_coeff_three_matrices(exponents):
    # the mixed-minor oracle of the property tests, and the library's own
    # mixed_minor_sum, against sympy
    n = 3
    ctx = MatrixInvariants.get(AB, n)
    ring = ctx.ring
    words = [word_from_str(s, AB) for s in ("x", "y", "xy")]
    mats = [ctx.word_matrix(w) for w in words]
    got = multidet_coeff(ctx, mats, exponents)
    want = coefficient(ring, words, exponents)
    assert want
    assert as_dict(ring, got) == want
    mixed = mixed_minor_sum([m.entries for m in mats], exponents, n)
    assert as_dict(ring, mixed) == want


def test_oracle_sees_a_wrong_coefficient():
    # the comparison is not vacuous: e_2 of X is not e_1 of X squared
    ctx = MatrixInvariants.get(AB, 2)
    x = word_from_str("x", AB)
    want = coefficient(ctx.ring, [x], (2,))
    got = ctx.pi_monomial(DPMonomial.single(x, 1)) ** 2
    assert as_dict(ctx.ring, got) != want
