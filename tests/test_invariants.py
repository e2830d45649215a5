import itertools
import random
from itertools import combinations
from math import comb

import pytest

from dpinv.backend import eliminate, poly_add_scaled
from dpinv.exactla import ExactMatrix, reduce_row
from dpinv.freering import (Alphabet, FreePoly, Word, cyclic_normal_form,
                            distinct_permutations, enumerate_lyndon_words,
                            enumerate_words, multidegree, multisets,
                            parse_freepoly, word_from_str)
from dpinv.gamma import (ContextError, DPMonomial, GammaElement,
                         enumerate_dp_monomials, tau)
from dpinv.invariants import (CommPoly, MatrixInvariants, MatrixPoly, PolyRing,
                              _amitsur_choices, _shared_context,
                              charpoly_coeffs, det_cofactor, mixed_minor_sum)
from dpinv.theorems import multidegrees

AB = Alphabet("xy")
X = word_from_str("x", AB)
Y = word_from_str("y", AB)
XX = word_from_str("xx", AB)


def inv(n):
    return MatrixInvariants.get(AB, n)


def multidet_coeff(ctx, mats, exponents):
    """Independent pairing oracle: the coefficient of
    t_0^(n-|a|) prod_k t_k^(a_k) in det(t_0 I + sum_k t_k mats[k]).

    The determinant is linear in each row, so that coefficient is the sum,
    over row sets T with |T| = |a| and the distinct labellings of T taking
    each k a_k times, of the mixed minor whose row i comes from mats[label
    of i].  Weights above n give zero.
    """
    weight = sum(exponents)
    if not 0 < weight <= ctx.n:
        return CommPoly.const(ctx.ring, 1 if weight == 0 else 0)
    labels = [k for k, e in enumerate(exponents) for _ in range(e)]
    labellings = list(distinct_permutations(labels))
    acc = {}
    for subset in combinations(range(ctx.n), weight):
        for labelling in labellings:
            minor = [[mats[k].entries[i][j] for j in subset]
                     for k, i in zip(labelling, subset)]
            poly_add_scaled(acc, det_cofactor(minor).terms, 1)
    return CommPoly(ctx.ring, acc)


def pi_oracle(ctx, m):
    """The pairing of a monomial, read from the mixed minors."""
    return multidet_coeff(ctx, [ctx.word_matrix(w) for w, _ in m.factors],
                          [e for _, e in m.factors])


def _dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def _matvec(m, v):
    return [_dot(row, v) for row in m]


def berkowitz_charpoly(a) -> list:
    """Division-free characteristic polynomial (Berkowitz/Samuelson).

    Input is a square array over any commutative ring whose elements
    support +, -, * among themselves and with ints.  Returns c with
    det(tI - a) = sum_i c[i] t^(n-i), c[0] = 1.
    """
    n = len(a)
    if n == 0:
        return [1]
    c = [1, -a[0][0]]
    for r in range(1, n):
        row = a[r][:r]
        col = [a[i][r] for i in range(r)]
        lead = [list(a[i][:r]) for i in range(r)]
        prods = [_dot(row, col)]
        v = col
        for _ in range(r - 1):
            v = _matvec(lead, v)
            prods.append(_dot(row, v))
        t = [1, -a[r][r]] + [-p for p in prods]
        new = []
        for i in range(r + 2):
            acc = None
            for j in range(max(0, i - len(t) + 1), min(i, r) + 1):
                term = t[i - j] * c[j]
                acc = term if acc is None else acc + term
            new.append(acc)
        c = new
    return c


def berkowitz_e(a) -> list:
    """[e_0, ..., e_n] of a square array by Berkowitz, which sums no minor:
    the independent oracle of ``mixed_minor_sum``."""
    return [c if i % 2 == 0 else -c
            for i, c in enumerate(berkowitz_charpoly(a))]


def test_generic_matrix_entries():
    z = inv(2).generic_matrix("x")
    assert [[e.to_str() for e in row] for row in z.entries] == \
        [["x[x][1][1]", "x[x][1][2]"], ["x[x][2][1]", "x[x][2][2]"]]
    z1 = inv(1).generic_matrix("x")
    assert z1.entries[0][0].to_str() == "x[x][1][1]"
    with pytest.raises(KeyError):
        inv(2).generic_matrix("q")


@pytest.mark.parametrize("letter", [1, -1])
def test_letter_index_outside_the_alphabet_is_rejected(letter):
    ctx = MatrixInvariants.get(Alphabet("x"), 1)
    for w in (Word((letter,)), Word((0, letter))):
        with pytest.raises(KeyError):
            ctx.word_matrix(w)
        with pytest.raises(KeyError):
            ctx.jn_eval(FreePoly.from_word(w))
    with pytest.raises(KeyError):
        ctx.generic_matrix(letter)
    for w in (Word((letter,)), Word((0, letter))):
        m = DPMonomial.single(w)
        with pytest.raises(KeyError):
            ctx.pi_coefficients(m)
        with pytest.raises(KeyError):
            ctx.pi_monomial(m)
        with pytest.raises(KeyError):
            ctx.pi_n_eval(GammaElement.monomial(m, 1))


def test_distinct_letters_use_disjoint_variables():
    zx = inv(2).generic_matrix("x")
    zy = inv(2).generic_matrix("y")
    keys_x = {k for row in zx.entries for p in row for k in p.terms}
    keys_y = {k for row in zy.entries for p in row for k in p.terms}
    assert keys_x.isdisjoint(keys_y)


def test_jn_eval_is_a_ring_map():
    ctx = inv(2)
    f = parse_freepoly("x*y - y*x", AB)
    direct = ctx.jn_eval(f)
    zx, zy = ctx.generic_matrix("x"), ctx.generic_matrix("y")
    assert direct == zx * zy - zy * zx
    assert ctx.jn_eval(FreePoly.one()).entries[0][0].to_str() == "1"
    assert ctx.jn_eval(FreePoly.letter(0)) == zx


def int_charpoly_oracle(m):
    """det(tI - m) by cofactor expansion with dense int coefficient lists
    (index = power of t); completely independent of the library path."""

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def padd(a, b):
        out = [0] * max(len(a), len(b))
        for i, ai in enumerate(a):
            out[i] += ai
        for j, bj in enumerate(b):
            out[j] += bj
        return out

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = [0]
        for j in range(n):
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = pmul(rows[0][j], det(sub))
            if j % 2:
                term = [-c for c in term]
            acc = padd(acc, term)
        return acc

    n = len(m)
    rows = [[[-m[i][j], 1] if i == j else [-m[i][j]] for j in range(n)]
            for i in range(n)]
    return det(rows)


def test_charpoly_on_identity():
    for n in (1, 2, 3, 4):
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert charpoly_coeffs(eye) == [comb(n, i) for i in range(n + 1)]


def test_charpoly_against_cofactor_oracle():
    rng = random.Random(99)
    for n in (2, 3, 4):
        for _ in range(40):
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            es = charpoly_coeffs(m)
            poly = int_charpoly_oracle(m)
            # det(tI - m) = sum (-1)^i e_i t^(n-i)
            expected = [(-1) ** i * es[i] for i in range(n + 1)]
            assert poly == list(reversed(expected))
            assert es[1] == sum(m[i][i] for i in range(n))
            assert es[n] == cofactor_int_det(m)


def test_charpoly_rejects_a_non_square_matrix():
    for m in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            charpoly_coeffs(m)
    assert charpoly_coeffs([]) == [1]


def test_mixed_minor_sum_one_matrix_edge_cases():
    m = [[2, 1, 0], [1, 3, 4], [0, 5, 6]]
    assert mixed_minor_sum([m], (0,), 3) == 1
    assert mixed_minor_sum([m], (4,), 3) == 0
    assert [mixed_minor_sum([m], (i,), 3) for i in (1, 2, 3)] == \
        [11, (6 - 1) + 12 + (18 - 20), cofactor_int_det(m)]
    # no matrices and a = (): the coefficient of t_0^n in det(t_0 I)
    assert mixed_minor_sum([], (), 3) == 1


def cofactor_int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * cofactor_int_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(n))


def test_charpoly_generic_2x2():
    ctx = inv(2)
    es = charpoly_coeffs(ctx.generic_matrix("x"))
    assert es[1].to_str() == "x[x][1][1] + x[x][2][2]"
    assert es[2] == ctx.pi_monomial(DPMonomial.single(X, 2))


def test_multidet_coeff_edge_cases():
    # e_poly takes 1 <= i <= n; the minor sums keep the edge values
    ctx = inv(2)
    zx = ctx.generic_matrix("x")
    es = charpoly_coeffs(zx.entries)
    assert mixed_minor_sum([zx.entries], (0,), 2) == es[0] == 1
    assert mixed_minor_sum([zx.entries], (3,), 2) == 0 and len(es) == 3
    assert multidet_coeff(ctx, [zx], (0,)) == CommPoly.const(ctx.ring, 1)
    assert multidet_coeff(ctx, [zx], (3,)).is_zero()
    for i in (1, 2):
        assert multidet_coeff(ctx, [zx], (i,)) == charpoly_coeffs(zx)[i] \
            == ctx.e_poly(X, i)


def test_e_poly_matches_berkowitz_charpoly():
    # Berkowitz never sums minors, so it checks the minor sum independently;
    # e_poly takes necklaces, and that of yx, xy, is compared with Berkowitz
    # on the matrix of yx.  The edge values e_0 = 1 and e_(n+1) = 0 are
    # read off the minor sums of the word's own matrix
    for n in (1, 2, 3, 4):
        ctx = inv(n)
        for w in (X, XX, word_from_str("xy", AB), word_from_str("yx", AB)):
            entries = ctx.word_matrix(w).entries
            es = berkowitz_e(entries)
            assert mixed_minor_sum([entries], (0,), n) == es[0] == 1
            assert charpoly_coeffs(entries)[0] == es[0]
            assert mixed_minor_sum([entries], (n + 1,), n) == 0
            for i in range(1, n + 1):
                assert ctx.e_poly(cyclic_normal_form(w), i) == es[i], \
                    (n, w, i)


def test_multidet_polarization_2x2():
    # coefficient of t1 t2 in det(t0 + t1 X + t2 Y) is tr X tr Y - tr(XY)
    ctx = inv(2)
    zx, zy = ctx.generic_matrix("x"), ctx.generic_matrix("y")
    mixed = multidet_coeff(ctx, [zx, zy], (1, 1))
    trx = zx.trace()
    try_ = zy.trace()
    trxy = (zx * zy).trace()
    assert mixed == trx * try_ - trxy


def test_pi_examples():
    ctx = inv(2)
    trace = ctx.pi_n_eval(GammaElement.monomial(DPMonomial.single(X), 2))
    assert trace == ctx.generic_matrix("x").trace()
    det = ctx.pi_monomial(DPMonomial.single(X, 2))
    zx = ctx.generic_matrix("x")
    assert det == charpoly_coeffs(zx)[2]
    # the 2x2 closed identity tr^2 = tr(X^2) + 2 det
    gx = GammaElement.monomial(DPMonomial.single(X), 2)
    lhs = ctx.pi_n_eval(tau(gx, gx))
    rhs = ctx.pi_n_eval(GammaElement({DPMonomial.single(XX): 1,
                                      DPMonomial.single(X, 2): 2}, 2))
    assert lhs == rhs == trace * trace


C_ROW_CELLS = ([(AB, n, d) for n in (1, 2, 3) for d in multidegrees(2, 4)]
               + [(Alphabet("xyz"), 2, d) for d in multidegrees(3, 3)])


def test_pi_monomial_is_its_c_row_times_products_of_e():
    # pi(m) = sum C[m, key] * prod e_i(w) over the (w, i) of key, every key
    # a sorted tuple of (necklace, i) with 1 <= i <= n and every C entry a
    # nonzero int; the products are rebuilt here from e_poly.  The
    # monomials are those of the limit ring, so weights above n, where
    # maps with some f(u) > n are dropped, are covered too
    for alphabet, n, d in C_ROW_CELLS:
        ctx = MatrixInvariants.get(alphabet, n)
        for m in enumerate_dp_monomials(d, None):
            acc = CommPoly.zero(ctx.ring)
            for key, c in ctx.pi_coefficients(m).items():
                assert type(c) is int and c, (n, m, key)
                assert list(key) == sorted(key), (n, m, key)
                product = CommPoly.const(ctx.ring, 1)
                for w, i in key:
                    assert 1 <= i <= n and cyclic_normal_form(w) == w
                    product = product * ctx.e_poly(w, i)
                acc = acc + product * c
            assert ctx.pi_monomial(m) == acc, (n, m)


def test_c_row_shape_cache_is_bounded():
    maxsize = _amitsur_choices.cache_info().maxsize
    assert maxsize is not None
    # one shape per n: the Lyndon word x and the one map x -> 1
    for n in range(1, maxsize + 3):
        assert _amitsur_choices((1,), n) == ((Word((0,)),), ((((0, 1),), 1),))
    assert _amitsur_choices.cache_info().currsize <= maxsize
    # x^(2) at n=1: e_2(x) = 0, so the only map is dropped
    assert _amitsur_choices((2,), 1) == ((Word((0,)),), ())
    ctx = MatrixInvariants.get(Alphabet("x"), 1)
    assert ctx.pi_coefficients(DPMonomial.single(Word((0,)), 2)) == {}


def test_pi_context_mismatch():
    ctx = inv(2)
    with pytest.raises(ContextError):
        ctx.pi_n_eval(GammaElement.monomial(DPMonomial.single(X), 3))


def all_level_monomials(max_total, n):
    out = [DPMonomial.one()]
    for t in range(1, max_total + 1):
        for d in [(a, t - a) for a in range(t + 1)]:
            out.extend(m for m in enumerate_dp_monomials(d, n))
    return out


def test_pi_multiplicative_exhaustive_n2():
    ctx = inv(2)
    monos = all_level_monomials(3, 2)
    cache = {m: ctx.pi_monomial(m) for m in monos}
    for u, v in itertools.product(monos, repeat=2):
        if sum(u.multidegree(2)) + sum(v.multidegree(2)) > 3:
            continue
        gu = GammaElement.monomial(u, 2)
        gv = GammaElement.monomial(v, 2)
        assert ctx.pi_n_eval(tau(gu, gv)) == cache[u] * cache[v]


def test_e_homogeneity():
    ctx = inv(2)
    for word in (X, Y, XX, word_from_str("xy", AB)):
        wd = multidegree(word, 2)
        for i in (1, 2):
            p = ctx.e_poly(word, i)
            want = tuple(i * c for c in wd)
            for key in p.terms:
                exps = ctx.ring.unpack(key)
                seen = [0, 0]
                for s in range(2):
                    for a in range(2):
                        for b in range(2):
                            seen[s] += exps[ctx.ring.x_index(s, a + 1, b + 1)]
                assert tuple(seen) == want


def test_invariant_span_examples():
    # at n=1 every choice of factors gives the one monomial of the slice
    assert {p.to_str() for p in inv(1).invariant_span((2, 1)).values()} == \
        {"x[x][1][1]^2*x[y][1][1]"}
    span = inv(2).invariant_span((2, 0)).values()
    keys = sorted({k for p in span for k in p.terms})
    cols = {k: i for i, k in enumerate(keys)}
    rows = [p.coeff_vector(cols) for p in span]
    # e_1(x)^2 and e_2(x): e_1(xx) = e_1(x)^2 - 2 e_2(x) is no Lyndon product
    assert len(span) == 2
    assert ExactMatrix(rows, len(cols)).rank() == 2
    assert list(inv(2).invariant_span((0, 0)).values()) == \
        [CommPoly.const(inv(2).ring, 1)]


def test_invariant_span_is_keyed_by_its_lyndon_choices():
    # one entry per choice of (Lyndon word, i) factors of multidegree d,
    # keyed by the sorted factors, whose product is the value
    cells = ([(AB, n, d) for n in (2, 3) for d in multidegrees(2, 4)]
             + [(Alphabet("xyz"), 2, (2, 1, 1))])
    for alphabet, n, d in cells:
        ctx = MatrixInvariants.get(alphabet, n)
        r = len(d)
        cands = [(w, i) for w in enumerate_lyndon_words(r, max_multidegree=d)
                 for i in range(1, n + 1)]
        degs = [tuple(i * x for x in multidegree(w, r)) for w, i in cands]
        choices = [tuple(sorted(cands[k] for k, e in picks
                                for _ in range(e)))
                   for picks in multisets(degs, d)]
        span = ctx.invariant_span(d)
        assert len(span) == len(choices), (alphabet, n, d)
        assert set(span) == set(choices), (alphabet, n, d)
        for key, p in span.items():
            assert list(key) == sorted(key), (n, d, key)
            degree, rebuilt = [0] * r, CommPoly.const(ctx.ring, 1)
            for w, i in key:
                assert all(w < w[k:] + w[:k] for k in range(1, len(w)))
                degree = [a + i * x for a, x in zip(degree, multidegree(w, r))]
                rebuilt = rebuilt * ctx.e_poly(w, i)
            assert tuple(degree) == d and p == rebuilt, (n, d, key)


def necklace_products(ctx, d):
    """The product of e_i over necklaces, primitive or not, for every
    choice of factors of multidegree d; a necklace is a word <= each of
    its rotations."""
    r = len(d)
    cands = [(w, i) for w in enumerate_words(r, d)
             if all(w <= w[k:] + w[:k] for k in range(1, len(w)))
             for i in range(1, ctx.n + 1)]
    degs = [tuple(i * x for x in multidegree(w, r)) for w, i in cands]
    return [ctx.product(tuple(sorted(
                cands[k] for k, e in picks for _ in range(e))))
            for picks in multisets(degs, d)]


def lattice_holds(rows, basis):
    """Whether every polynomial of rows reduces to zero against the
    ``eliminate`` pivots of basis: lies in its Z-lattice."""
    pivots = eliminate(dict(p.terms) for p in basis)
    return all(not reduce_row(pivots, p.terms)[1] for p in rows)


def test_lyndon_span_has_the_necklace_lattice():
    # e_i(u^k) is the integer polynomial e_i o p_k in the e_j(u), so
    # dropping the non-primitive necklaces keeps the Z-lattice
    cells = ([(AB, n, d) for n in (2, 3, 4) for d in multidegrees(2, 5)]
             + [(Alphabet("xyz"), 3, (2, 1, 1))])
    for alphabet, n, d in cells:
        ctx = MatrixInvariants.get(alphabet, n)
        span, necks = ctx.invariant_span(d).values(), necklace_products(ctx, d)
        assert lattice_holds(necks, span), (alphabet, n, d)
        assert lattice_holds(span, necks), (alphabet, n, d)


def test_a_doubled_lyndon_product_leaves_the_necklace_lattice():
    # 2 e_2(x) keeps the rank over Q, but e_2(x) is no integer
    # combination of e_1(x)^2 and 2 e_2(x)
    ctx = inv(2)
    e2 = ctx.e_poly(X, 2)
    span = ctx.invariant_span((2, 0)).values()
    assert e2 in span
    doubled = [p * 2 if p == e2 else p for p in span]
    assert len(eliminate(dict(p.terms) for p in doubled)) == len(span)
    necks = necklace_products(ctx, (2, 0))
    assert len(necks) == 3  # e_1(xx) too
    assert lattice_holds(doubled, necks)
    assert not lattice_holds(necks, doubled)


def random_specialization(rng, nletters, n):
    mats = [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            for _ in range(nletters)]
    flat = [a for m in mats for row in m for a in row]
    return mats, flat


def test_conjugation_invariance_randomized():
    rng = random.Random(2718)
    for n in (2, 3):
        ctx = MatrixInvariants.get(AB, n)
        span = ctx.invariant_span((1, 1)).values()
        for _ in range(5):
            mats, flat = random_specialization(rng, 2, n)
            g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.choice((-2, -1, 1, 2))
                    for k in range(n):
                        g[j][k] += c * g[i][k]
            det = cofactor_int_det(g)
            assert det in (1, -1)
            from fractions import Fraction
            ginv = [[Fraction((-1) ** (i + j) * cofactor_int_det(
                [row[:i] + row[i + 1:] for k, row in enumerate(g) if k != j]),
                det) for j in range(n)] for i in range(n)]

            def mul(a, b):
                return [[sum(a[i][k] * b[k][j] for k in range(n))
                         for j in range(n)] for i in range(n)]

            conj_flat = []
            for m in mats:
                c = mul(mul(g, m), ginv)
                conj_flat.extend(int(x) for row in c for x in row)
            for p in span:
                assert p.evaluate(flat) == p.evaluate(conj_flat)


def test_covariants_are_equivariant():
    # the defining property: F(g X g^-1, g Y g^-1) = g F(X, Y) g^-1 for
    # every word matrix times an invariant of the complementary
    # multidegree, at random integer specializations
    rng = random.Random(424242)
    n = 2
    ctx = inv(n)
    d = (1, 1)
    cov = [ctx.word_matrix(u) * p
           for u in [Word()] + enumerate_words(2, max_multidegree=d)
           for p in ctx.invariant_span(tuple(
               b - a for a, b in zip(multidegree(u, 2), d))).values()]
    assert len(cov) == 6
    for _ in range(4):
        mats, flat = random_specialization(rng, 2, n)
        g = [[1, rng.randint(-2, 2)], [0, 1]]
        gi = [[1, -g[0][1]], [0, 1]]

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]

        conj_flat = []
        for m in mats:
            conj_flat.extend(x for row in mul(mul(g, m), gi) for x in row)
        for f in cov:
            lhs = f.evaluate(conj_flat)
            rhs = mul(mul(g, f.evaluate(flat)), gi)
            assert lhs == rhs


def test_pi_agrees_with_numeric_trace_and_det():
    # independent numeric oracle: specialize and compare against integer
    # matrix arithmetic
    rng = random.Random(5)
    ctx = inv(2)
    g_xy = GammaElement.monomial(DPMonomial.single(word_from_str("xy", AB)), 2)
    p = ctx.pi_n_eval(g_xy)
    for _ in range(25):
        mats, flat = random_specialization(rng, 2, 2)
        xy = [[sum(mats[0][i][k] * mats[1][k][j] for k in range(2))
               for j in range(2)] for i in range(2)]
        assert p.evaluate(flat) == xy[0][0] + xy[1][1]


def test_exponent_overflow_raises():
    # exponents stay below each 8-bit field's guard bit: a product that
    # would reach it raises instead of carrying into the next variable
    ring = inv(2).ring
    x, y = ring.var(0), ring.var(1)
    with pytest.raises(OverflowError):
        x ** 128
    with pytest.raises(OverflowError):
        (x ** 64 * y) * (x ** 64 + y)
    with pytest.raises(OverflowError):
        MatrixPoly(ring, [[x ** 100]]) * MatrixPoly(ring, [[x ** 28]])
    with pytest.raises(OverflowError):
        CommPoly(ring, {ring.pack([127]) + 1: 1})


def test_product_just_below_the_bound_stays_exact():
    ring = inv(2).ring
    x, y = ring.var(0), ring.var(1)
    p = (x ** 64 + y ** 127) * (x ** 63 - 2)
    assert {ring.unpack(k)[:2]: c for k, c in p.terms.items()} == \
        {(127, 0): 1, (63, 127): 1, (0, 127): -2, (64, 0): -2}
    mat = MatrixPoly(ring, [[x ** 100]]) * MatrixPoly(ring, [[x ** 27 * y]])
    assert ring.unpack(*mat.entries[0][0].terms)[:3] == (127, 1, 0)
    assert (x ** 127).evaluate([2] + [0] * 7) == 2 ** 127


def test_monomials_up_to_lists_every_small_monomial():
    for ring, max_deg in [(PolyRing(Alphabet("x"), 1), 5),
                          (PolyRing(AB, 1), 3), (inv(2).ring, 3)]:
        box = itertools.product(range(max_deg + 1), repeat=ring.nvars)
        expected = sorted(ring.pack(e) for e in box if sum(e) <= max_deg)
        assert ring.monomials_up_to(max_deg) == expected


def test_pack_rejects_an_exponent_at_the_bound():
    ring = inv(2).ring
    assert ring.unpack(ring.pack([127, 0, 127]))[:4] == (127, 0, 127, 0)
    for exps in ([128], [0, 128], [0] * 7 + [255], [1, 300]):
        with pytest.raises(OverflowError):
            ring.pack(exps)
    with pytest.raises(ValueError):
        ring.pack([-1])
    with pytest.raises(OverflowError):
        ring.monomials_up_to(128)


def test_rings_compare_by_letters_and_order():
    # a rebuilt context must keep mixing with polynomials of the old one
    ctx = inv(2)
    entry = ctx.generic_matrix("x").entries[0][0]
    ring = PolyRing(AB, 2)
    assert ring == ctx.ring and hash(ring) == hash(ctx.ring)
    assert ring != PolyRing(AB, 3) and ring != PolyRing(Alphabet("xz"), 2)
    fresh = CommPoly(ring, dict(entry.terms))
    assert fresh == entry and (fresh - entry).is_zero()
    assert (fresh * entry).terms == (entry * entry).terms
    with pytest.raises(ValueError):
        fresh + inv(3).generic_matrix("x").entries[0][0]


def test_context_cache_is_bounded():
    assert _shared_context.cache_info().maxsize is not None
    entry = inv(2).generic_matrix("y").entries[1][0]
    for n in range(1, _shared_context.cache_info().maxsize + 2):
        MatrixInvariants.get(Alphabet("uvw"), n)
    assert _shared_context.cache_info().currsize <= \
        _shared_context.cache_info().maxsize
    rebuilt = inv(2).generic_matrix("y").entries[1][0]
    assert rebuilt == entry and (rebuilt + entry).terms == (entry * 2).terms


def test_every_spelling_of_get_shares_one_context():
    spellings = [MatrixInvariants.get(AB, 2),
                 MatrixInvariants.get(AB, 2, None),
                 MatrixInvariants.get(AB, 2, diagonal=None),
                 MatrixInvariants.get(AB, n=2)]
    assert all(ctx is spellings[0] for ctx in spellings)
    assert MatrixInvariants.get(AB, 2, diagonal=0) is \
        MatrixInvariants.get(AB, 2, 0)


def test_only_a_third_argument_puts_a_context_on_the_slice():
    full, sliced = inv(2), MatrixInvariants.get(AB, 2, 0)
    assert full is not sliced and full.diagonal is None
    assert sliced is MatrixInvariants.get(AB, 2, 0)
    assert sliced.ring == full.ring
    x12 = full.ring.var(full.ring.x_index(0, 1, 2))
    assert full.generic_matrix("x").entries[0][1] == x12
    assert sliced.generic_matrix("x").entries[0][1].is_zero()
    assert sliced.generic_matrix("y") == full.generic_matrix("y")
    assert len(full.e_poly(X, 2).terms) == 2
    assert len(sliced.e_poly(X, 2).terms) == 1
    with pytest.raises(KeyError):
        MatrixInvariants(AB, 2, 2)
