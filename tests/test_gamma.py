import copy
import gc
import itertools
import math
import pickle

import pytest

from dpinv import gamma
from dpinv.freering import Alphabet, FreePoly, Word, word_from_str
from dpinv.backend import poly_add_scaled
from dpinv.gamma import (ContextError, DPMonomial, GammaElement, chi_formal,
                         dp_expand, enumerate_dp_monomials, format_gamma,
                         parse_gamma, rho_n, sigma_n, tau)

AB = Alphabet("xy")
X = word_from_str("x", AB)
Y = word_from_str("y", AB)
XX = word_from_str("xx", AB)
XY = word_from_str("xy", AB)


def mono(*pairs):
    return DPMonomial(pairs)


def gel(terms, level=None):
    return GammaElement(terms, level)


def merge_factors(pairs):
    """Collect repeated words into one divided power.

    Merging w^(a) with w^(b) costs a binomial factor C(a+b, a); iterating
    gives the multinomial coefficient for each word.  An oracle for the
    merge that ``tau_monomials`` does in its slot table.
    """
    coeff = 1
    exps = {}
    for w, e in pairs:
        if e == 0:
            continue
        old = exps.get(w, 0)
        if old:
            coeff *= math.comb(old + e, e)
        exps[w] = old + e
    return coeff, DPMonomial(exps.items())


def dp_product(u, v, level=None):
    """Commutative divided-power product of two basis monomials.

    Shared words contribute binomial factors; in a truncated context a
    result of weight above the level is zero.
    """
    coeff, mono = merge_factors(list(u.factors) + list(v.factors))
    if level is not None and mono.weight > level:
        return GammaElement.zero(level)
    return GammaElement.monomial(mono, level, coeff)


def dp_mul(g, h):
    """Bilinear extension of dp_product."""
    g._coerce(h)
    acc = {}
    for mu, cu in g.terms.items():
        for mv, cv in h.terms.items():
            poly_add_scaled(acc, dp_product(mu, mv, g.level).terms, cu * cv)
    return g._like(acc)


def test_dp_product_relation_v():
    # x^(1) x^(1) = 2 x^(2)
    assert dp_product(mono((X, 1)), mono((X, 1))) == gel({mono((X, 2)): 2})
    assert dp_product(mono((X, 1)), mono((Y, 1))) == \
        gel({mono((X, 1), (Y, 1)): 1})
    # truncation kills weight overflow
    assert dp_product(mono((X, 1)), mono((Y, 1)), level=1) == \
        GammaElement.zero(1)


def test_tau_basic_examples():
    gx = GammaElement.monomial(mono((X, 1)))
    gy = GammaElement.monomial(mono((Y, 1)))
    assert tau(gx, gx) == gel({mono((XX, 1)): 1, mono((X, 2)): 2})
    assert tau(gx, gy) == gel({mono((XY, 1)): 1, mono((X, 1), (Y, 1)): 1})
    one = GammaElement.one()
    assert tau(one, gx) == gx
    assert tau(gx, one) == gx


def test_tau_n_truncates():
    gx2 = sigma_n(GammaElement.monomial(mono((X, 1))), 2)
    assert tau(gx2, gx2) == gel({mono((XX, 1)): 1, mono((X, 2)): 2}, 2)
    gx1 = sigma_n(GammaElement.monomial(mono((X, 1))), 1)
    assert tau(gx1, gx1) == gel({mono((XX, 1)): 1}, 1)
    one1 = GammaElement.one(1)
    assert tau(one1, gx1) == gx1


def test_context_mismatch_raises():
    gx1 = GammaElement.monomial(mono((X, 1)), 1)
    gx2 = GammaElement.monomial(mono((X, 1)), 2)
    with pytest.raises(ContextError):
        tau(gx1, gx2)
    with pytest.raises(ContextError):
        gx1 + gx2


def test_sigma_n():
    g = gel({mono((X, 2)): 1, mono((X, 1)): 1})
    assert sigma_n(g, 1) == gel({mono((X, 1)): 1}, 1)
    assert sigma_n(g, 2) == gel({mono((X, 2)): 1, mono((X, 1)): 1}, 2)
    assert sigma_n(g, 0) == GammaElement.zero(0)
    with pytest.raises(ContextError):
        sigma_n(sigma_n(g, 2), 1)


def test_rho_n_drops_full_weight():
    g2 = gel({mono((X, 2)): 1}, 2)
    assert rho_n(g2) == GammaElement.zero(1)
    assert rho_n(gel({mono((X, 1)): 1}, 2)) == gel({mono((X, 1)): 1}, 1)
    # ring-map example: rho_2(x^(1) tau_2 x^(1)) = x^(1) tau_1 x^(1)
    gx2 = GammaElement.monomial(mono((X, 1)), 2)
    gx1 = GammaElement.monomial(mono((X, 1)), 1)
    assert rho_n(tau(gx2, gx2)) == tau(gx1, gx1)


def test_rho_compose_sigma():
    g = gel({mono((X, 2)): 3, mono((XX, 1)): 1, mono((X, 1), (Y, 2)): -2})
    for n in (1, 2, 3):
        assert rho_n(sigma_n(g, n)) == sigma_n(g, n - 1)


def test_dp_expand_examples():
    fx = FreePoly.letter(0)
    fy = FreePoly.letter(1)
    assert dp_expand(fx + fy, 2) == gel({mono((X, 2)): 1,
                                         mono((X, 1), (Y, 1)): 1,
                                         mono((Y, 2)): 1})
    assert dp_expand(2 * fx, 2) == gel({mono((X, 2)): 4})
    assert dp_expand(fx, 0) == GammaElement.one()
    with pytest.raises(ValueError):
        dp_expand(fx + FreePoly.one(), 1)


def test_dp_expand_single_word_is_divided_power():
    for word in (X, XX, XY):
        for k in range(4):
            expanded = dp_expand(FreePoly.from_word(word), k)
            if k == 0:
                assert expanded == GammaElement.one()
            else:
                assert expanded == gel({mono((word, k)): 1})


def phi_coefficient(a, b, k):
    """Coefficient of t^k in phi(1+ta) phi(1+tb), products in the tau ring."""
    acc = GammaElement.zero()
    for i in range(k + 1):
        acc = acc + tau(dp_expand(a, i), dp_expand(b, k - i))
    return acc


def phi_of_product_coefficient(a, b, k):
    """Same coefficient computed from phi(1 + t(a+b) + t^2 ab): the divided
    power of the t-polynomial distributes with t-degree weights."""
    acc = GammaElement.zero()
    ab = a * b
    for i in range(k + 1):
        l, rem = divmod(k - i, 2)
        if rem:
            continue
        acc = acc + dp_mul(dp_expand(a + b, i), dp_expand(ab, l))
    return acc


def test_phi_multiplicativity_to_order_three():
    fx = FreePoly.letter(0)
    fy = FreePoly.letter(1)
    pairs = [(fx, fy), (fx, fx), (fx * fy, fy), (fx + fy, fx)]
    for a, b in pairs:
        for k in range(4):
            assert phi_coefficient(a, b, k) == phi_of_product_coefficient(a, b, k)


def full_margin_tau_oracle(u, v, n):
    """Independent route to the level-n product: enumerate margin matrices
    with the identity slot explicit.

    Rows are (1, words of u) with sums (n - |u|, exponents of u), columns
    likewise for v; every cell concatenates its row and column words, the
    identity acting as the empty word.  Each matrix contributes one merged
    basis monomial with no truncation step at all: the identity-identity
    cell absorbs exactly the weight that the truncated product drops.
    """
    if u.weight > n or v.weight > n:
        raise ValueError("operands must live at level n")
    rows = [(Word(), n - u.weight)] + list(u.factors)
    cols = [(Word(), n - v.weight)] + list(v.factors)
    acc = {}

    def fill(i, remaining_cols, rows_acc):
        if i == len(rows):
            yield tuple(rows_acc)
            return
        budget = rows[i][1]

        def fill_row(j, left, row_acc):
            if j == len(cols):
                if left == 0:
                    rows_acc.append(tuple(row_acc))
                    yield from fill(i + 1, remaining_cols, rows_acc)
                    rows_acc.pop()
                return
            top = min(left, remaining_cols[j])
            for e in range(top + 1):
                remaining_cols[j] -= e
                row_acc.append(e)
                yield from fill_row(j + 1, left - e, row_acc)
                row_acc.pop()
                remaining_cols[j] += e

        yield from fill_row(0, budget, [])

    for g in fill(0, [c[1] for c in cols], []):
        if any(sum(g[i][j] for i in range(len(rows))) != cols[j][1]
               for j in range(len(cols))):
            continue
        pairs = []
        for i, (wu, _) in enumerate(rows):
            for j, (wv, _) in enumerate(cols):
                word = wu + wv
                if len(word) and g[i][j]:
                    pairs.append((word, g[i][j]))
        coeff, monomial = merge_factors(pairs)
        acc[monomial] = acc.get(monomial, 0) + coeff
    return GammaElement({m: c for m, c in acc.items() if c}, n)


def test_tau_n_matches_full_margin_oracle():
    # exhaustive pairs of level-n basis monomials of total degree <= 3
    for n in (1, 2, 3):
        monos = []
        for t in range(0, 4):
            for dx in range(t + 1):
                monos.extend(enumerate_dp_monomials((dx, t - dx), n))
        for u, v in itertools.product(monos, repeat=2):
            gu = GammaElement.monomial(u, n)
            gv = GammaElement.monomial(v, n)
            assert tau(gu, gv) == full_margin_tau_oracle(u, v, n), \
                (n, u, v)


def test_tau_is_graded():
    monos = enumerate_dp_monomials((1, 1)) + enumerate_dp_monomials((2, 0))
    for u, v in itertools.product(monos, repeat=2):
        prod = tau(GammaElement.monomial(u), GammaElement.monomial(v))
        target = tuple(x + y for x, y in zip(u.multidegree(2),
                                             v.multidegree(2)))
        assert all(m.multidegree(2) == target for m in prod.terms)


def test_chi_formal_small():
    fx = FreePoly.letter(0)
    # each divided-power monomial maps to its word polynomial; the top
    # divided power carries a constant
    assert chi_formal(fx, 1) == {DPMonomial.one(): FreePoly({X: 1}),
                                 mono((X, 1)): FreePoly({Word(): -1})}
    assert chi_formal(fx, 2) == {DPMonomial.one(): FreePoly({XX: 1}),
                                 mono((X, 1)): FreePoly({X: -1}),
                                 mono((X, 2)): FreePoly({Word(): 1})}
    # f = x + xy at n=2: each monomial of f^(1) carries -f, and each one of
    # f^(2) its coefficient as a constant
    f = FreePoly({X: 1, XY: 1})
    chi = chi_formal(f, 2)
    assert len(chi) == 3 + len(dp_expand(f, 2).terms)
    assert chi[DPMonomial.one()] == f * f
    assert chi[mono((X, 1))] == -f and chi[mono((XY, 1))] == -f
    assert {m: p for m, p in chi.items() if m.weight == 2} == {
        m: FreePoly({Word(): c}) for m, c in dp_expand(f, 2).terms.items()}
    with pytest.raises(ValueError):
        chi_formal(FreePoly.one(), 1)
    with pytest.raises(ValueError):
        chi_formal(FreePoly.zero(), 1)


def test_enumerate_dp_monomials():
    assert enumerate_dp_monomials((0, 0)) == [DPMonomial.one()]
    # multidegree (2,0): x^(2), (xx)^(1)
    got = enumerate_dp_monomials((2, 0))
    assert sorted(m.to_str(AB) for m in got) == ["x^(2)", "xx^(1)"]
    # weight bound: at level 1 only the single word survives
    got1 = enumerate_dp_monomials((2, 0), max_weight=1)
    assert [m.to_str(AB) for m in got1] == ["xx^(1)"]
    # multidegree (1,1): xy^(1), yx^(1), x^(1)y^(1)
    assert len(enumerate_dp_monomials((1, 1))) == 3


def _geometric_product(degs, max_total, nvars):
    """Coefficients of prod_k 1/(1 - x^degs[k]) up to total degree
    max_total, as a truncated power series keyed by exponent tuples."""
    cells = sorted((e for t in range(max_total + 1)
                    for e in itertools.product(range(t + 1), repeat=nvars)
                    if sum(e) == t), key=lambda e: e)
    series = {e: int(not any(e)) for e in cells}
    for deg in degs:
        # ascending lex order: e - deg is already updated, so every power
        # of x^deg is counted
        for e in cells:
            prev = tuple(a - b for a, b in zip(e, deg))
            if all(a >= 0 for a in prev):
                series[e] += series[prev]
    return series


def test_one_letter_basis_counts_partitions():
    # a one-letter monomial is a partition of k into word lengths, with as
    # many parts as its weight; by conjugation, partitions into at most n
    # parts are those with parts <= n: prod_{i<=n} 1/(1 - q^i)
    for n in range(1, 5):
        at_most_n = _geometric_product([(i,) for i in range(1, n + 1)], 8, 1)
        for k in range(9):
            assert len(enumerate_dp_monomials((k,), n)) == at_most_n[(k,)], \
                (k, n)
    p = _geometric_product([(i,) for i in range(1, 9)], 8, 1)
    assert [len(enumerate_dp_monomials((k,))) for k in range(9)] == \
        [p[(k,)] for k in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_limit_basis_counts_match_the_word_generating_function():
    # the limit-ring slice at d counts multisets of nonempty words of total
    # multidegree d: the coefficient of x^d in prod_w 1/(1 - x^deg(w))
    max_total = 6
    degs = [(letters.count(0), letters.count(1))
            for length in range(1, max_total + 1)
            for letters in itertools.product(range(2), repeat=length)]
    series = _geometric_product(degs, max_total, 2)
    for d, count in series.items():
        got = enumerate_dp_monomials(d)
        assert len(got) == count, d
        # built by the trusted constructor: a validated copy is the same
        # interned object, which a factor out of order would not be
        assert all(m is DPMonomial(m.factors) for m in got), d
        assert all(m.weight == sum(e for _, e in m.factors) for m in got), d


def test_basis_memo_is_bounded_and_hands_out_copies():
    assert gamma._dp_monomial_slice.cache_info().maxsize is not None
    assert gamma.tau_monomials.cache_info().maxsize is not None
    first = enumerate_dp_monomials((2, 1), 2)
    expected = list(first)
    first.pop()
    first.append(DPMonomial.one())
    assert enumerate_dp_monomials((2, 1), 2) == expected
    assert enumerate_dp_monomials([2, 1], max_weight=2) == expected


def test_monomials_are_interned_and_compare_by_identity():
    assert DPMonomial.__eq__ is object.__eq__
    assert DPMonomial.__hash__ is object.__hash__
    assert mono((XY, 1), (X, 2)) is mono((X, 2), (XY, 1))
    assert DPMonomial.one() is DPMonomial()
    assert DPMonomial.single(X, 2) is mono((X, 2))
    assert mono((X, 1)) is not mono((X, 2))


def test_constructor_rejects_non_int_exponents_and_letters():
    with pytest.raises(TypeError):
        DPMonomial([(X, 1.5)])
    # an exact float must not resolve to the interned x^(1)
    with pytest.raises(TypeError):
        DPMonomial([(X, 1.0)])
    with pytest.raises(TypeError):
        DPMonomial([("x", 1)])
    with pytest.raises(TypeError):
        DPMonomial([((0, 1.0), 1)])

    class One:
        def __index__(self):
            return 1

    m = DPMonomial([((One(),), One())])
    assert m is DPMonomial.single(Y)
    (w, e), = m.factors
    assert type(w) is Word and type(w[0]) is int and type(e) is int


def test_pickle_and_copy_return_the_interned_monomial():
    one = DPMonomial.one()
    m = mono((X, 1), (XY, 2))
    copies = [copy.copy(m), copy.deepcopy(m)]
    copies += [pickle.loads(pickle.dumps(m, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(c is m for c in copies)
    assert pickle.loads(pickle.dumps(one)) is one
    assert DPMonomial.one() is one
    assert one.factors == () and one.weight == 0
    assert m.factors == ((X, 1), (XY, 2)) and m.weight == 3

    g = gel({m: 3, mono((X, 2)): -1}, 3)
    gx = GammaElement.monomial(mono((X, 1)), 3)
    for c in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert c == g and c.level == 3
        assert all(a is b for a, b in zip(c.terms, g.terms))
        assert c + g == 2 * g
        assert tau(c, gx) == tau(g, gx) and tau(gx, c) == tau(gx, g)
    assert DPMonomial.one().factors == ()


def test_intern_table_is_weak():
    gamma.tau_monomials.cache_clear()
    gamma._dp_monomial_slice.cache_clear()
    gc.collect()
    before = len(gamma._INTERNED)
    YX = word_from_str("yx", AB)
    g = GammaElement.monomial(mono((X, 1), (XY, 1)))
    h = GammaElement.monomial(mono((Y, 1), (YX, 1)))
    product = tau(g, h)
    assert product.multidegrees(2) == {(3, 3)}
    assert len(gamma._INTERNED) > before
    del g, h, product
    gamma.tau_monomials.cache_clear()
    gamma._dp_monomial_slice.cache_clear()
    gc.collect()
    assert len(gamma._INTERNED) == before


def test_parse_format_roundtrip():
    texts = [
        "3*[x^(2) xy^(1) | n=4] - [y^(1) | n=4]",
        "[x^(1)|lim]",
        "[|n=2]",
        "2*[xx^(1)|lim] + [x^(2)|lim] - 5*[y^(3)|lim]",
    ]
    for text in texts:
        g = parse_gamma(text, AB)
        assert parse_gamma(format_gamma(g, AB), AB) == g


def test_parse_rejects_garbage():
    from dpinv.freering import ParseError

    for bad in ["[x^(2 | n=2]", "[x^(1)|n=q]", "[x^(1)|n=1] + [x^(1)|lim]",
                "[x^(3)|n=2]", "[x^(0)|lim]", "[x^(1) x^(2)|lim]"]:
        with pytest.raises(ParseError):
            parse_gamma(bad, AB)


def test_format_matches_spec_shape():
    gx = GammaElement.monomial(mono((X, 1)))
    assert format_gamma(tau(gx, gx), AB) == "2*[x^(2)|lim] + [xx^(1)|lim]"
