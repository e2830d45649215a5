import itertools
from functools import reduce
from math import prod

import pytest

from dpinv import gamma, theorems
from dpinv.backend import eliminate, poly_add_scaled
from dpinv.exactla import ExactMatrix, reduce_row
from dpinv.freering import (Alphabet, FreePoly, Word, multidegree,
                            parse_freepoly, word_from_str)
from dpinv.gamma import (DPMonomial, GammaElement, dp_expand,
                         enumerate_dp_monomials, tau, tau_monomials)
from dpinv.invariants import MatrixInvariants
from dpinv.theorems import (_sub_multidegrees,
                            abelianized_piece, multidegrees,
                            verify_cayley_hamilton, verify_plethysm_cell,
                            verify_sigma_homomorphism,
                            verify_tau_ring_axioms, verify_thm_2_2_2,
                            verify_thm_2_2_2_cell, verify_zubkov_kernel)
from test_exactla import fraction_gauss_rank

AB = Alphabet("xy")
AB1 = Alphabet("x")
X = word_from_str("x", AB)
Y = word_from_str("y", AB)


def test_multidegree_order():
    ds = multidegrees(2, 2)
    assert ds == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for nletters in (1, 2, 3):
        for lo, hi in [(0, 4), (1, 3), (3, 5)]:
            box = itertools.product(range(hi + 1), repeat=nletters)
            expected = sorted((d for d in box if lo <= sum(d) <= hi),
                              key=lambda d: (sum(d), d))
            assert multidegrees(nletters, hi, lo) == expected


def test_sub_multidegrees_order():
    # the (|e|, e) order fixes the row order of the relation matrices
    for d in [(), (0,), (3,), (2, 0), (1, 3), (2, 1, 2)]:
        box = itertools.product(*(range(x + 1) for x in d))
        assert _sub_multidegrees(d) == sorted(box, key=lambda e: (sum(e), e))


def test_abelianized_piece_examples():
    basis, rel = abelianized_piece(1, (1, 1))
    assert sorted(m.to_str(AB) for m in basis) == ["xy^(1)", "yx^(1)"]
    assert rel.rank() == 1
    assert len(basis) - rel.rank() == 1

    basis, rel = abelianized_piece(2, (1, 0))
    assert len(basis) == 1 and rel.rank() == 0

    basis, rel = abelianized_piece(2, (0, 0))
    assert len(basis) == 1 and rel.rank() == 0


def test_pi_kills_relation_rows():
    # well-definedness: every row of the relation matrix, read back as an
    # element through the basis, maps to the zero polynomial
    n = 2
    ctx = MatrixInvariants.get(AB, n)
    for d in [(1, 1), (2, 0), (2, 1), (2, 2)]:
        basis, rel = abelianized_piece(n, d)
        for row in rel.rows:
            element = GammaElement(
                {m: c for m, c in zip(basis, row) if c}, n)
            assert ctx.pi_n_eval(element).is_zero()


def test_cyclic_invariance_of_pi():
    # pi(1^(n-i) (uv)^(i)) = pi(1^(n-i) (vu)^(i)) for |uv| <= 4
    for n in (2, 3):
        ctx = MatrixInvariants.get(AB, n)
        words = [word_from_str(s, AB) for s in ["x", "y", "xy", "xx", "xyy"]]
        for u, v in itertools.product(words, repeat=2):
            if len(u) + len(v) > 4:
                continue
            for i in range(1, n + 1):
                uv = DPMonomial.single(u + v, i)
                vu = DPMonomial.single(v + u, i)
                assert ctx.pi_monomial(uv) == ctx.pi_monomial(vu)


def test_thm_222_small_all_pass():
    for entry in verify_thm_2_2_2(2, 3, AB, seed=13):
        assert entry.passed, entry
    for entry in verify_thm_2_2_2(1, 3, AB):
        assert entry.passed and entry.lhs_rank == 1


def test_thm_222_frontier_n4_degree4():
    # degree 4 is the first where weight-4 monomials, and so full 4x4
    # mixed minors, enter the pairing at n=4
    entries = verify_thm_2_2_2(4, 4, AB)
    assert len(entries) == 15
    for entry in entries:
        assert entry.passed and entry.lhs_rank == entry.rhs_rank, entry


def test_invariant_ranks_match_classical_2x2_description():
    # the invariant ring of two generic 2x2 matrices is free on
    # tr X, tr Y, det X, det Y, tr XY; count its monomials per multidegree
    # as an oracle for both sides of the graded comparison
    gens = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]

    def free_count(p, q):
        count = 0
        for c in range(p // 2 + 1):
            for d in range(q // 2 + 1):
                for e in range(min(p - 2 * c, q - 2 * d) + 1):
                    # a = p - 2c - e and b = q - 2d - e are then forced
                    count += 1
        return count

    for d in multidegrees(2, 5):
        entry = verify_thm_2_2_2_cell(2, d, AB)
        assert entry.passed
        assert entry.rhs_rank == free_count(*d), d
        assert entry.lhs_rank == free_count(*d), d


def test_sparse_rank_matches_dense_on_relation_matrices():
    # the sparse elimination must keep the rank of every relation matrix
    # the 2.2.2 cells build, and the Smith form has rank-many divisors
    for n in (1, 2, 3):
        for d in multidegrees(2, 4):
            _, rel = abelianized_piece(n, d)
            rank = rel.rank()
            assert rank == fraction_gauss_rank(rel.rows), (n, d)
            assert len(rel.smith_normal_form()) == rank, (n, d)


def all_pairs_relation_rows(level, d):
    """The relation rows of every unordered pair of basis monomials u, v:
    each nonzero left multiple a [u, v] of multidegree d, dense over the
    basis by coeff_vector."""
    basis = enumerate_dp_monomials(d, level)
    cols = {m: i for i, m in enumerate(basis)}
    nletters = len(d)
    rows = []
    for e in _sub_multidegrees(d):
        monos = [m for du in _sub_multidegrees(e) if 0 < sum(du) < sum(e)
                 for m in enumerate_dp_monomials(du, level)]
        comms = []
        for u, v in itertools.combinations(monos, 2):
            du, dv = u.multidegree(nletters), v.multidegree(nletters)
            if tuple(a + b for a, b in zip(du, dv)) == e:
                gu = GammaElement.monomial(u, level)
                gv = GammaElement.monomial(v, level)
                comms.append(tau(gu, gv) - tau(gv, gu))
        rest = tuple(x - y for x, y in zip(d, e))
        for a in enumerate_dp_monomials(rest, level):
            ga = GammaElement.monomial(a, level)
            for c in comms:
                row = tau(ga, c)
                if not row.is_zero():
                    rows.append(row.coeff_vector(cols))
    return rows


RELATION_CELLS = ([(n, d) for n in (1, 2, 3) for d in multidegrees(2, 6)]
                  + [(n, d) for n in (1, 2) for d in multidegrees(3, 4)]
                  + [(None, d) for d in multidegrees(1, 6)
                     + multidegrees(2, 5)])


def test_relation_basis_matches_the_all_pairs_oracle():
    # the generator commutators span the same Z-lattice as all commutator
    # pairs: equal ranks alone would miss a sublattice of finite index
    for level, d in RELATION_CELLS:
        basis, rel = abelianized_piece(level, d)
        oracle = ExactMatrix(all_pairs_relation_rows(level, d), len(basis))
        assert rel.nrows == rel.rank() == oracle.rank(), (level, d)
        assert rel.smith_normal_form() == oracle.smith_normal_form(), \
            (level, d)


def _echelon_columns(rows):
    """A pivot column for each sparse row: one where the row is nonzero and
    every later row is zero.  Fails unless the rows are in echelon form."""
    cols, later = [], set()
    for row in reversed(rows):
        free = set(row) - later
        assert free, "the rows are not in echelon form"
        cols.append(min(free, key=DPMonomial.sort_key))
        later |= set(row)
    return cols[::-1]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_the_commutator_ideal_is_two_sided(level):
    # every product a x and x a, of a pivot x of I_d with a basis monomial
    # a of degree f (the generators among them), lies in the Z-span of the
    # pivots of I_{d+f}, with an integer certificate
    for nletters, bound in ((2, 5), (3, 3)):
        for d in multidegrees(nletters, bound, min_total=2):
            ideal = theorems._commutator_ideal(d, level)
            for f in multidegrees(nletters, bound - sum(d), min_total=1):
                upper = theorems._commutator_ideal(
                    tuple(a + b for a, b in zip(d, f)), level)
                rows = [x.terms for x in upper]
                pivots = [(c, row, None)
                          for c, row in zip(_echelon_columns(rows), rows)]
                for m in enumerate_dp_monomials(f, level):
                    a = GammaElement.monomial(m, level)
                    for x in ideal:
                        for t in (tau(a, x), tau(x, a)):
                            coords, rest = reduce_row(pivots, t.terms)
                            assert not rest, (level, d, m)
                            assert all(type(c) is int
                                       for c in coords.values())
                            back = {}
                            for j, c in coords.items():
                                poly_add_scaled(back, rows[j], c)
                            assert back == t.terms


def test_relabelled_cells_have_the_directly_built_lattice():
    # a cell whose d is not non-increasing is its canonical cell with the
    # letters permuted; its pivots must lie in d and span, with integer
    # certificates both ways, the lattice of all commutator pairs in d.  A
    # 3-cycle such as d = (0, 2, 1) tells the permutation from its inverse
    for level, d in RELATION_CELLS:
        basis = enumerate_dp_monomials(d, level)
        pivots = [x.terms for x in theorems._commutator_ideal(d, level)]
        assert all(m.multidegree(len(d)) == d
                   for row in pivots for m in row), (level, d)
        oracle = [{basis[i]: c for i, c in enumerate(row) if c}
                  for row in all_pairs_relation_rows(level, d)]
        for rows, targets in ((eliminate(dict(r) for r in oracle), pivots),
                              ([(c, row, None) for c, row in
                                zip(_echelon_columns(pivots), pivots)],
                               oracle)):
            for t in targets:
                coords, rest = reduce_row(rows, t)
                assert not rest, (level, d)
                assert all(type(c) is int for c in coords.values())


def test_thm_222_strict_z():
    e = verify_thm_2_2_2_cell(2, (1, 1), AB, strict_z=True)
    assert e.passed
    assert e.torsion is not None and all(t == 1 for t in e.torsion)


def sympy_divisors(rows):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return []
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    return [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]


def dense_cell_oracle(n, d, alphabet, strict_z):
    """The 2.2.2 cell on dense rows over the sorted union of the monomials
    of the pi images and the span: Fraction ranks and, under strict_z,
    sympy's Smith forms, where the pi lattice holds the span exactly when
    stacking the span on pi keeps the rank and the product of divisors.
    Returns (rhs_rank, kernel_rank, passed)."""
    inv = MatrixInvariants.get(alphabet, n)
    basis, rel = abelianized_piece(n, d)
    rel_rank = fraction_gauss_rank(rel.rows)
    span = list(inv.invariant_span(d).values())
    pi_polys = [inv.pi_monomial(m) for m in basis]
    keys = sorted({k for p in pi_polys + span for k in p.terms})
    cols = {k: i for i, k in enumerate(keys)}
    span_rows = [p.coeff_vector(cols) for p in span]
    pi_rows = [p.coeff_vector(cols) for p in pi_polys]
    rhs_rank = fraction_gauss_rank(span_rows)
    kernel_rank = len(basis) - fraction_gauss_rank(pi_rows)
    passed = len(basis) - rel_rank == rhs_rank and kernel_rank == rel_rank
    if strict_z:
        pi_divisors = sympy_divisors(pi_rows)
        both = sympy_divisors(pi_rows + span_rows)
        passed = (passed and all(t == 1 for t in sympy_divisors(rel.rows))
                  and len(both) == len(pi_divisors)
                  and prod(both) == prod(pi_divisors))
    return rhs_rank, kernel_rank, passed


CELLS = ([(n, d, AB) for n in (1, 2, 3) for d in multidegrees(2, 4)]
         + [(2, d, Alphabet("xyz")) for d in multidegrees(3, 3)])


@pytest.mark.parametrize("strict_z", [False, True])
def test_sparse_cell_matches_the_dense_oracle(strict_z):
    pytest.importorskip("sympy")
    for n, d, alphabet in CELLS:
        e = verify_thm_2_2_2_cell(n, d, alphabet, strict_z)
        assert (e.rhs_rank, e.kernel_rank, e.passed) == \
            dense_cell_oracle(n, d, alphabet, strict_z), (n, d, alphabet)


def test_strict_z_fails_a_pi_image_off_the_span_lattice(monkeypatch):
    # doubling the image of x^(1) keeps every rank, and 2 tr X spans the
    # slice over Q but not over Z: only the lattice check can catch it
    # (the cell and pi_monomial both read the doubled C row)
    pytest.importorskip("sympy")
    genuine = MatrixInvariants.pi_coefficients
    monkeypatch.setattr(
        MatrixInvariants, "pi_coefficients",
        lambda self, m: {key: 2 * c for key, c in genuine(self, m).items()}
        if m == DPMonomial.single(X) else genuine(self, m))
    for strict_z in (False, True):
        e = verify_thm_2_2_2_cell(2, (1, 0), AB, strict_z)
        assert (e.lhs_rank, e.rhs_rank, e.kernel_rank) == (1, 1, 0)
        assert e.passed == (not strict_z)
        assert (e.rhs_rank, e.kernel_rank, e.passed) == \
            dense_cell_oracle(2, (1, 0), AB, strict_z)


X1_XYY = DPMonomial(((X, 1), (word_from_str("xyy", AB), 1)))
YYXX = DPMonomial.single(word_from_str("yyxx", AB))


def test_swapped_c_rows_fail_the_relation_check(monkeypatch):
    # swapping two C rows only permutes the pi images, so every rank stays;
    # some relation row then leaves ker(pi), and without a seed only the
    # relation check can see it
    genuine = MatrixInvariants.pi_coefficients
    swap = {X1_XYY: YYXX, YYXX: X1_XYY}
    monkeypatch.setattr(MatrixInvariants, "pi_coefficients",
                        lambda self, m: genuine(self, swap.get(m, m)))
    e = verify_thm_2_2_2_cell(2, (2, 2), AB)
    assert (e.lhs_rank, e.rhs_rank, e.kernel_rank) == (6, 6, 10)
    assert not e.passed


def _record_picks(monkeypatch) -> list:
    """The monomials ``pi_monomial`` is asked for from now on."""
    picks = []
    genuine = MatrixInvariants.pi_monomial
    monkeypatch.setattr(MatrixInvariants, "pi_monomial",
                        lambda self, m: picks.append(m) or genuine(self, m))
    return picks


def test_a_flipped_c_entry_fails_the_cell(monkeypatch):
    # a relation row r with r[m] != 0 sends the fault -2 C[m, key] P_key
    # to r[m] times it, which is not zero.  xx^(1) yy^(1) is the one basis
    # monomial outside every relation row: the cell checks the theorem for
    # whatever pairing it is given, so only a seed whose spot check draws
    # that monomial, and compares its C value with the determinant, can
    # catch a flipped entry of its row
    genuine = MatrixInvariants.pi_coefficients
    ctx = MatrixInvariants.get(AB, 2)
    basis, rel = abelianized_piece(2, (2, 2))
    related = [m for i, m in enumerate(basis) if any(r[i] for r in rel.rows)]
    (free,) = [m for m in basis if m not in related]
    assert free.to_str(AB) == "xx^(1) yy^(1)"
    for m in related + [free]:
        for key in genuine(ctx, m):
            def flipped(self, u, m=m, key=key):
                row = genuine(self, u)
                return {**row, key: -row[key]} if u is m else row
            monkeypatch.setattr(MatrixInvariants, "pi_coefficients", flipped)
            assert verify_thm_2_2_2_cell(2, (2, 2), AB).passed == \
                (m is free), (m, key)
            assert not verify_thm_2_2_2_cell(2, (2, 2), AB, seed=0).passed, \
                (m, key)
            monkeypatch.undo()
    picks = _record_picks(monkeypatch)
    assert verify_thm_2_2_2_cell(2, (2, 2), AB, seed=0).passed
    assert picks == [free]


def _faulty_image(monkeypatch, mono, image):
    """Make ``pi_monomial`` send mono to the polynomial image(ctx)."""
    genuine = MatrixInvariants.pi_monomial
    monkeypatch.setattr(
        MatrixInvariants, "pi_monomial",
        lambda self, m: image(self) if m == mono else genuine(self, m))


def test_spot_check_evaluates_pi_images(monkeypatch):
    # a pairing sending x^(1) to the entry x[x][1][1] instead of tr X keeps
    # every rank, since the cell reads the C rows, so only the spot check,
    # which compares the one image at d = (1, 0) with its C value, can
    # catch it.  x is the slice letter there, and its diagonal entries are
    # drawn positive, so tr X never equals x[x][1][1] at n >= 2
    for n in (2, 3, 4, 5):
        _faulty_image(monkeypatch, DPMonomial.single(X),
                      lambda ctx: ctx.ring.var(ctx.ring.x_index(0, 1, 1)))
        entries = [verify_thm_2_2_2_cell(n, (1, 0), AB, seed=s)
                   for s in range(8)]
        assert {(e.lhs_rank, e.rhs_rank, e.kernel_rank)
                for e in entries} == {(1, 1, 0)}, n
        assert not any(e.passed for e in entries), n
        monkeypatch.undo()
        assert all(verify_thm_2_2_2_cell(n, (1, 0), AB, seed=s).passed
                   for s in range(300)), n


@pytest.mark.parametrize("d, word, letter", [((1, 0), X, 0), ((0, 1), Y, 1)])
def test_an_image_zero_on_the_slice_fails_the_cell(monkeypatch, d, word,
                                                   letter):
    # an off-diagonal entry of the slice letter is no invariant, and it is
    # zero on the slice; the spot check's point lies on the slice, so the
    # image reads 0 there against a positive trace
    for n in (2, 3, 4, 5):
        _faulty_image(monkeypatch, DPMonomial.single(word),
                      lambda ctx: ctx.ring.var(ctx.ring.x_index(letter, 1, 2)))
        entries = [verify_thm_2_2_2_cell(n, d, AB, seed=s) for s in range(8)]
        assert {(e.lhs_rank, e.rhs_rank, e.kernel_rank)
                for e in entries} == {(1, 1, 0)}, n
        assert not any(e.passed for e in entries), n
        monkeypatch.undo()


XX = word_from_str("xx", AB)


def test_spot_check_evaluates_the_e_polynomials(monkeypatch):
    # a fresh context keeps the fake products out of the shared one
    genuine = MatrixInvariants.e_poly
    cases = [
        # the entry x[x][1][1] in place of e_1(x): the span, the C values
        # and the full image all read it, so the ranks stay
        ((1, 0), (1, 1, 0), (X, 1),
         lambda ctx: ctx.ring.var(ctx.ring.x_index(0, 1, 1))),
        # e_2(x) + e_1(x)^2 in place of e_2(x) is an invariant, so the
        # slice keeps every rank, and the row of xx^(1) does not name it:
        # on a seed that draws xx^(1), only the characteristic polynomials
        # catch it
        ((2, 0), (2, 2, 0), (X, 2),
         lambda ctx: genuine(ctx, X, 2)
         + genuine(ctx, X, 1) * genuine(ctx, X, 1)),
    ]
    for d, ranks, key, fake in cases:
        monkeypatch.setattr(
            MatrixInvariants, "e_poly",
            lambda self, w, i, key=key, fake=fake: fake(self)
            if (w, i) == key else genuine(self, w, i))
        picks = _record_picks(monkeypatch)
        for n in (2, 3, 4, 5):
            fresh = MatrixInvariants(AB, n, 0)
            monkeypatch.setattr(
                MatrixInvariants, "get",
                staticmethod(lambda alphabet, n, diagonal=None: fresh))
            entries = [verify_thm_2_2_2_cell(n, d, AB, seed=s)
                       for s in range(8)]
            assert {(e.lhs_rank, e.rhs_rank, e.kernel_rank)
                    for e in entries} == {ranks}, (d, n)
            assert not any(e.passed for e in entries), (d, n)
        monkeypatch.undo()
    assert DPMonomial.single(XX) in picks


def _in_the_full_ring(monkeypatch):
    """Make every verifier build its context in the full ring."""
    genuine = MatrixInvariants.get
    monkeypatch.setattr(
        MatrixInvariants, "get",
        staticmethod(lambda alphabet, n, diagonal=None: genuine(alphabet, n)))


def test_sliced_cells_match_the_full_ring(monkeypatch):
    cells = [(n, d) for n in (1, 2, 3) for d in multidegrees(2, 6)]

    def run():
        return [(e.lhs_rank, e.rhs_rank, e.kernel_rank, e.passed, e.torsion)
                for e in (verify_thm_2_2_2_cell(n, d, AB, True, 7)
                          for n, d in cells)]

    sliced = run()
    _in_the_full_ring(monkeypatch)
    assert run() == sliced


def _cayley_hamilton_mutants(f, n):
    """The monomials of f^(0), ..., f^(n), one mutant of the check each."""
    return [m for i in range(n + 1) for m in dp_expand(f, i).terms]


def _double_in_dp_expand(monkeypatch, mono):
    """Make the check read each f^(i) with the coefficient of mono doubled
    (none when mono is None)."""
    def doubled(g, k):
        out = gamma.dp_expand(g, k)
        if mono in out.terms:
            out.terms[mono] *= 2
        return out
    monkeypatch.setattr(theorems, "dp_expand", doubled)


def test_sliced_cayley_hamilton_matches_the_full_ring(monkeypatch):
    # the genuine chi_n(f), and chi_n(f) with one monomial's coefficient
    # doubled in one f^(i)
    cases = []
    for n in (1, 2, 3):
        for text in ["x", "y", "x*y", "x+y", "x+x*y"]:
            f = parse_freepoly(text, AB)
            cases.append((f, n, None))
            cases += [(f, n, mono) for mono in _cayley_hamilton_mutants(f, n)]
    assert sum(mono is not None for _, _, mono in cases) == 65

    def run():
        verdicts = []
        for f, n, mono in cases:
            _double_in_dp_expand(monkeypatch, mono)
            verdicts.append(verify_cayley_hamilton(f, n, AB).passed)
        return verdicts

    sliced = run()
    assert sliced == [mono is None for _, _, mono in cases]
    _in_the_full_ring(monkeypatch)
    assert run() == sliced


def test_thm_222_spec_rank_examples():
    e = verify_thm_2_2_2_cell(2, (2, 0), AB)
    assert (e.lhs_rank, e.rhs_rank) == (2, 2)
    e = verify_thm_2_2_2_cell(2, (1, 1), AB)
    assert e.lhs_rank == e.rhs_rank == 2


def reduce_to_single_generators(m, _memo=None):
    """Rewrite a monomial as a tau-polynomial in single-word divided powers:
    the evidence that ``theorems._generators`` generate the ring over Z.

    Each key is a sequence of single-word divided powers, multiplied left
    to right by tau, and maps to its coefficient; ``()`` is the identity.
    Splitting off the first factor, the tau product with the remainder
    reproduces the monomial plus correction terms of strictly smaller
    weight (those with at least one interior concatenation cell), which
    are reduced recursively.  The dicts are memoized per call tree and
    shared, so they are read-only.
    """
    if _memo is None:
        _memo = {}
    if m in _memo:
        return _memo[m]
    if len(m.factors) <= 1:
        expr = {(m,) if m.factors else (): 1}
    else:
        first = DPMonomial.single(*m.factors[0])
        rest = DPMonomial(m.factors[1:])
        expr = {(first,) + key: c for key, c in
                reduce_to_single_generators(rest, _memo).items()}
        for mono, c in tau_monomials(first, rest).terms.items():
            if mono != m:
                poly_add_scaled(expr, reduce_to_single_generators(mono, _memo),
                                -c)
    _memo[m] = expr
    return expr


def tau_evaluate(expr):
    """Multiply a rewrite of ``reduce_to_single_generators`` out in the
    limit ring."""
    acc = {}
    for factors, c in expr.items():
        product = reduce(tau, map(GammaElement.monomial, factors),
                         GammaElement.one(None))
        poly_add_scaled(acc, product.terms, c)
    return GammaElement(acc)


def test_reduce_single_generator_cases():
    x1, y1 = DPMonomial.single(X, 1), DPMonomial.single(Y, 1)
    xy1 = DPMonomial.single(word_from_str("xy", AB), 1)
    x1y1 = DPMonomial(((X, 1), (Y, 1)))
    # x^(1)y^(1) = x^(1) tau y^(1) - (xy)^(1)
    assert reduce_to_single_generators(x1y1) == {(x1, y1): 1, (xy1,): -1}
    x2 = DPMonomial.single(X, 2)
    assert reduce_to_single_generators(x2) == {(x2,): 1}
    assert reduce_to_single_generators(DPMonomial.one()) == {(): 1}
    assert tau_evaluate({(x1, y1): 1, (xy1,): -1}) == \
        GammaElement.monomial(x1y1)


def reduce_roundtrip(alphabet, max_total):
    memo = {}
    for d in multidegrees(len(alphabet), max_total):
        for m in enumerate_dp_monomials(d):
            expr = reduce_to_single_generators(m, memo)
            assert all(len(f.factors) == 1 for key in expr for f in key), m
            assert tau_evaluate(expr) == GammaElement.monomial(m), m


def test_reduce_roundtrip_up_to_degree_four():
    reduce_roundtrip(AB, 4)


def test_reduce_roundtrip_three_letters_up_to_degree_three():
    reduce_roundtrip(Alphabet("xyz"), 3)


def test_reduce_uses_only_single_word_leaves():
    m = DPMonomial(((X, 1), (Y, 2), (word_from_str("xy", AB), 1)))
    expr = reduce_to_single_generators(m)
    assert all(len(f.factors) == 1 for key in expr for f in key)
    assert tau_evaluate(expr) == GammaElement.monomial(m)


def brute_force_generators(f, level):
    # every w^(k) with k |w| = |f|, k within the level and k times the
    # multidegree of w equal to f, from all words of the length
    nletters = len(f)
    out = []
    for k in range(1, sum(f) + 1):
        if sum(f) % k or (level is not None and k > level):
            continue
        for letters in itertools.product(range(nletters), repeat=sum(f) // k):
            w = Word(letters)
            if tuple(k * x for x in multidegree(w, nletters)) == f:
                out.append(DPMonomial.single(w, k))
    return sorted(out, key=DPMonomial.sort_key)


GENERATOR_CELLS = multidegrees(2, 5, min_total=1) + [(2, 1, 1)]


@pytest.mark.parametrize("level", [None, 1, 2, 3])
def test_generators_are_the_single_word_divided_powers(level):
    for f in GENERATOR_CELLS:
        assert theorems._generators(f, level) == \
            brute_force_generators(f, level), (f, level)


def test_the_rewrite_to_single_generators_uses_only_generators():
    memo = {}
    for d in GENERATOR_CELLS:
        nletters = len(d)
        for m in enumerate_dp_monomials(d):
            for key in reduce_to_single_generators(m, memo):
                for g in key:
                    e = g.multidegree(nletters)
                    assert g in theorems._generators(e, None), (m, g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zubkov_fails_without_the_top_divided_power(monkeypatch, n):
    # at degree n + 1 the kernel is spanned by x^(n+1) alone, and no other
    # generator of weight above n fits
    genuine = theorems._generators
    top = DPMonomial.single(Word((0,)), n + 1)

    def mutant(f, level):
        return [m for m in genuine(f, level) if m != top]

    assert verify_zubkov_kernel(n, (n + 1,), AB1).passed
    monkeypatch.setattr(theorems, "_generators", mutant)
    e = verify_zubkov_kernel(n, (n + 1,), AB1)
    assert not e.passed and (e.lhs_rank, e.rhs_rank) == (1, 0)


def test_verify_plethysm():
    fx = FreePoly.letter(0)
    for n in (2, 3):
        for i in (1, 2):
            e = verify_plethysm_cell(fx, n, i, AB)
            assert e.passed and e.multidegree == (n * i, 0), (n, i)
    # n = 1: substituting first powers is the identity
    for a in (fx, fx + FreePoly.letter(1)):
        for i in (1, 2, 3):
            assert verify_plethysm_cell(a, 1, i, AB).passed, (a, i)
    xy = parse_freepoly("x*y", AB)
    assert verify_plethysm_cell(xy, 2, 2, AB).multidegree == (4, 4)
    assert verify_plethysm_cell(fx + xy, 2, 1, AB).multidegree == ()


def test_verify_cayley_hamilton_spec_cases():
    for n in (1, 2):
        for text in ["x", "x*y", "x+y"]:
            e = verify_cayley_hamilton(parse_freepoly(text, AB), n, AB)
            assert e.passed, (n, text)
    e = verify_cayley_hamilton(parse_freepoly("x", AB), 1, AB)
    assert e.multidegree == (1, 0)
    with pytest.raises(ValueError):
        verify_cayley_hamilton(FreePoly.one(), 1, AB)
    with pytest.raises(ValueError):
        verify_cayley_hamilton(FreePoly.zero(), 1, AB)


def test_cayley_hamilton_fails_on_one_doubled_term(monkeypatch):
    # doubling the coefficient of any one monomial of one f^(i) leaves that
    # term's image over, and the verdict must see it
    cases = [(f, n, mono) for n in (1, 2)
             for f in (parse_freepoly(t, AB) for t in ["x", "x*y", "x+y"])
             for mono in _cayley_hamilton_mutants(f, n)]
    assert len(cases) == 19
    for f, n, mono in cases:
        _double_in_dp_expand(monkeypatch, mono)
        assert not verify_cayley_hamilton(f, n, AB).passed, (n, f, mono)


def test_verify_zubkov():
    # |d| <= n: both ranks zero
    e = verify_zubkov_kernel(2, (2,), AB1)
    assert e.passed and e.lhs_rank == 0 and e.rhs_rank == 0
    e = verify_zubkov_kernel(1, (2,), AB1)
    assert e.passed and e.lhs_rank == 1
    for n in (1, 2):
        for t in range(0, 7):
            assert verify_zubkov_kernel(n, (t,), AB1).passed
    # over two letters the word powers alone do not generate the kernel,
    # so the check would report a true statement as a failure
    with pytest.raises(ValueError):
        verify_zubkov_kernel(1, (1, 1), AB)


def test_tau_axioms_small():
    for max_total in (2, 3):
        e = verify_tau_ring_axioms(max_total, AB)
        assert e.passed and (e.theorem, e.n) == ("tau-axioms", 0)
        for n in (1, 2):
            e = verify_sigma_homomorphism(max_total, AB, n)
            assert e.passed and (e.theorem, e.n) == ("tau-axioms", n)


def test_tau_axioms_fail_on_an_ungraded_product(monkeypatch):
    # the stray term lies past the degree bound, where no multidegree is
    # recorded: the check fails instead of raising
    stray = GammaElement.monomial(DPMonomial.single(X, 9))
    product = theorems.tau_monomials
    monkeypatch.setattr(theorems, "tau_monomials",
                        lambda u, v: product(u, v) + stray)
    assert not verify_tau_ring_axioms(2, AB).passed


def _patch_products(monkeypatch, change):
    """Make ``tau`` and the verifiers read change(u, v, u v) as the product
    of the monomials u and v."""
    product = gamma.tau_monomials

    def patched(u, v):
        return change(u, v, product(u, v))

    monkeypatch.setattr(gamma, "tau_monomials", patched)
    monkeypatch.setattr(theorems, "tau_monomials", patched)


def test_tau_axioms_fail_on_one_perturbed_coefficient(monkeypatch):
    # x^(1) y^(1) keeps its degree, and the identity law holds: only
    # associativity sees the change
    x, y = DPMonomial.single(X), DPMonomial.single(Y)

    def change(u, v, uv):
        if (u, v) != (x, y):
            return uv
        terms = dict(uv.terms)
        terms[min(terms, key=DPMonomial.sort_key)] += 1
        return GammaElement(terms)

    _patch_products(monkeypatch, change)
    assert not verify_tau_ring_axioms(3, AB).passed


def test_tau_axioms_fail_on_a_broken_identity_law(monkeypatch):
    # u 1 = 2u for one monomial u of the top degree, which lies in no
    # associativity triple without the identity
    u = DPMonomial.single(word_from_str("xyy", AB))
    one = DPMonomial.one()

    def change(a, b, ab):
        return ab + ab if (a, b) == (u, one) else ab

    _patch_products(monkeypatch, change)
    assert not verify_tau_ring_axioms(3, AB).passed


def test_entry_json_schema():
    e = verify_zubkov_kernel(1, (3,), AB1)
    j = e.to_json()
    assert set(j) == {"theorem", "n", "multidegree", "lhs_rank", "rhs_rank",
                      "kernel_rank", "pass", "millis"}
    assert isinstance(j["multidegree"], list)
    assert j["millis"] == 0
