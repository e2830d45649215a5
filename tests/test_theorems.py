import itertools
import random

from dpinv.freering import Alphabet, FreePoly, parse_freepoly, word_from_str
from dpinv.gamma import DPMonomial, GammaElement, enumerate_dp_monomials
from dpinv.invariants import MatrixInvariants
from dpinv.theorems import (TauLeaf, TauProduct, TauSum, _random_unimodular,
                            _sub_multidegrees, abelianized_piece, multidegrees,
                            reduce_to_single_generators,
                            verify_cayley_hamilton, verify_plethysm,
                            verify_plethysm_cell,
                            verify_sigma_homomorphism, verify_tau_axioms,
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


def test_thm_222_strict_z():
    e = verify_thm_2_2_2_cell(2, (1, 1), AB, strict_z=True)
    assert e.passed
    assert e.torsion is not None and all(t == 1 for t in e.torsion)


def test_spot_check_evaluates_pi_images(monkeypatch):
    # a pairing sending x^(1) to the entry x[x][1][1] instead of tr X keeps
    # every rank, so only conjugating the pi images can catch it; the span
    # is frozen because it is built from the same pi_monomial.  The random
    # conjugation applies a row operation for every ordered pair of
    # indices, so it moves that entry on every seed tried here
    genuine_span = MatrixInvariants.invariant_span
    genuine = MatrixInvariants.pi_monomial
    seeds = range(8)
    for n in (2, 3, 4, 5):
        inv = MatrixInvariants.get(AB, n)
        span = genuine_span(inv, (1, 0))
        entry = inv.ring.var(inv.ring.x_index(0, 1, 1))
        monkeypatch.setattr(MatrixInvariants, "invariant_span",
                            lambda self, d: span)
        monkeypatch.setattr(
            MatrixInvariants, "pi_monomial",
            lambda self, m: entry if m == DPMonomial.single(X)
            else genuine(self, m))
        entries = [verify_thm_2_2_2_cell(n, (1, 0), AB, seed=s) for s in seeds]
        assert {(e.lhs_rank, e.rhs_rank, e.kernel_rank)
                for e in entries} == {(1, 1, 0)}, n
        assert not any(e.passed for e in entries), n
        monkeypatch.undo()
        assert all(verify_thm_2_2_2_cell(n, (1, 0), AB, seed=s).passed
                   for s in seeds), n


def test_random_unimodular_comes_with_its_inverse():
    for n in range(1, 6):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        for seed in range(300):
            g, ginv = _random_unimodular(random.Random(seed), n)
            for a, b in ((g, ginv), (ginv, g)):
                assert [[sum(a[i][k] * b[k][j] for k in range(n))
                         for j in range(n)] for i in range(n)] == eye, \
                    (n, seed)


def test_thm_222_spec_rank_examples():
    e = verify_thm_2_2_2_cell(2, (2, 0), AB)
    assert (e.lhs_rank, e.rhs_rank) == (2, 2)
    e = verify_thm_2_2_2_cell(2, (1, 1), AB)
    assert e.lhs_rank == e.rhs_rank == 2


def test_reduce_single_generator_cases():
    x1y1 = DPMonomial(((X, 1), (Y, 1)))
    expr = reduce_to_single_generators(x1y1)
    # x^(1)y^(1) = x^(1) tau y^(1) - (xy)^(1)
    assert isinstance(expr, TauSum)
    assert expr.eval() == GammaElement.monomial(x1y1)
    leaf = reduce_to_single_generators(DPMonomial.single(X, 2))
    assert isinstance(leaf, TauLeaf)
    assert leaf.eval() == GammaElement.monomial(DPMonomial.single(X, 2))


def test_reduce_roundtrip_up_to_degree_four():
    memo = {}
    for t in range(1, 5):
        for d in multidegrees(2, t, min_total=t):
            for m in enumerate_dp_monomials(d):
                expr = reduce_to_single_generators(m, memo)
                assert expr.eval() == GammaElement.monomial(m), m


def test_reduce_uses_only_single_word_leaves():
    def leaves(expr):
        if isinstance(expr, TauLeaf):
            yield expr
        elif isinstance(expr, TauProduct):
            yield from leaves(expr.left)
            yield from leaves(expr.right)
        elif isinstance(expr, TauSum):
            for _, sub in expr.terms:
                yield from leaves(sub)

    m = DPMonomial(((X, 1), (Y, 2), (word_from_str("xy", AB), 1)))
    for leaf in leaves(reduce_to_single_generators(m)):
        assert isinstance(leaf, TauLeaf)


def test_verify_plethysm():
    fx = FreePoly.letter(0)
    entries = verify_plethysm([2, 3], [1, 2], [fx], AB)
    assert len(entries) == 4 and all(e.passed for e in entries)
    # n = 1: substituting first powers is the identity
    trivial = verify_plethysm([1], [1, 2, 3], [fx, fx + FreePoly.letter(1)], AB)
    assert all(e.passed for e in trivial)
    assert entries == [verify_plethysm_cell(fx, n, i, AB)
                       for n in (2, 3) for i in (1, 2)]
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


def test_verify_zubkov():
    # |d| <= n: both ranks zero
    e = verify_zubkov_kernel(2, (2,), AB1)
    assert e.passed and e.lhs_rank == 0 and e.rhs_rank == 0
    e = verify_zubkov_kernel(1, (2,), AB1)
    assert e.passed and e.lhs_rank == 1
    for n in (1, 2):
        for t in range(0, 7):
            assert verify_zubkov_kernel(n, (t,), AB1).passed


def test_tau_axioms_small():
    entries = verify_tau_axioms(3, AB, [1, 2])
    assert len(entries) == 3
    assert all(e.passed for e in entries)
    assert verify_tau_ring_axioms(2, AB).passed
    assert verify_sigma_homomorphism(3, AB, 2).passed


def test_entry_json_schema():
    e = verify_zubkov_kernel(1, (3,), AB1)
    j = e.to_json()
    assert set(j) == {"theorem", "n", "multidegree", "lhs_rank", "rhs_rank",
                      "kernel_rank", "pass", "millis"}
    assert isinstance(j["multidegree"], list)
    assert j["millis"] == 0
