"""Degree-bounded executable verification of the structural theorems.

Every verifier reduces its claim to exact integer linear algebra on one
multidegree slice at a time and reports machine-checkable pass/fail
entries.  Failures are report entries, never exceptions.

The 2.2.2 cell and the Cayley-Hamilton check compute their invariants in
a ``MatrixInvariants`` context on the diagonal slice of one letter, which
is injective on invariants and on GL_n-equivariant matrix maps (see
``dpinv.invariants``).  A seeded 2.2.2 cell tests the sliced e_i against
integer characteristic polynomials at a random point of its slice.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from operator import mul
from typing import NamedTuple

from .backend import eliminate, poly_add_scaled
from .exactla import ExactMatrix, reduce_row
from .freering import (Alphabet, FreePoly, Word, compositions,
                       distinct_permutations)
from .gamma import (DPMonomial, GammaElement, chi_formal, dp_expand,
                    enumerate_dp_monomials, rho_n, sigma_n, tau,
                    tau_monomials)
from .invariants import (MatrixInvariants, MatrixPoly, charpoly_coeffs,
                         det_cofactor)
from .symfunc import plethysm_e_p, rho_a_substitute


class VerifyEntry(NamedTuple):
    """One report line; the JSON schema mirrors these fields."""

    theorem: str
    n: int
    multidegree: tuple[int, ...]
    lhs_rank: int
    rhs_rank: int
    kernel_rank: int
    passed: bool
    millis: int = 0  # wall time of the whole cell, set by cli._run_job
    torsion: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "n": self.n,
            "multidegree": list(self.multidegree),
            "lhs_rank": self.lhs_rank,
            "rhs_rank": self.rhs_rank,
            "kernel_rank": self.kernel_rank,
            "pass": self.passed,
            "millis": self.millis,
        }
        if self.torsion is not None:
            out["torsion"] = list(self.torsion)
        return out

    def sort_key(self) -> tuple:
        return (self.theorem, self.n, sum(self.multidegree), self.multidegree)


def multidegrees(nletters: int, max_total: int,
                 min_total: int = 0) -> list[tuple[int, ...]]:
    """All multidegrees with min_total <= |d| <= max_total, by (|d|, d)."""
    return [d for total in range(min_total, max_total + 1)
            for d in compositions(total, nletters)]


def _sub_multidegrees(d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All e with 0 <= e <= d componentwise, by (|e|, e)."""
    return [e for e in multidegrees(len(d), sum(d))
            if all(a <= b for a, b in zip(e, d))]


def _left_multiples(d: tuple[int, ...], level: int | None, gens,
                    index: dict[DPMonomial, int]) -> list[dict[int, int]]:
    """Sparse ``{basis index: int}`` rows of every nonzero left tau-multiple
    a g in multidegree d.  ``gens`` yields groups (e, [g, ...]) of elements
    of multidegree e <= d; a runs over the basis monomials of multidegree
    d - e, enumerated once per group."""
    rows: list[dict[int, int]] = []
    for e, group in gens:
        rest = tuple(x - y for x, y in zip(d, e))
        multipliers = [GammaElement.monomial(a, level)
                       for a in enumerate_dp_monomials(rest, level)]
        for g in group:
            for a in multipliers:
                terms = tau(a, g).terms
                if terms:
                    rows.append({index[m]: c for m, c in terms.items()})
    return rows


@lru_cache(maxsize=256)
def _commutator_basis(e: tuple[int, ...], level: int | None
                      ) -> tuple[GammaElement, ...]:
    """An echelon Z-basis, by ``eliminate``, of the commutators [g, v] of
    multidegree e, where g is a single-word divided power w^(k), v is any
    basis monomial, and a pair of two such generators is taken once.
    Cached: callers must treat the elements as read-only."""
    comms = []
    for du in _sub_multidegrees(e):
        dv = tuple(x - y for x, y in zip(e, du))
        if sum(du) == 0 or sum(dv) == 0:
            continue
        vs = enumerate_dp_monomials(dv, level)
        for g in enumerate_dp_monomials(du, level):
            if len(g.factors) != 1:
                continue
            gg = GammaElement.monomial(g, level)
            key = g.sort_key()
            for v in vs:
                if len(v.factors) == 1 and v.sort_key() <= key:
                    continue    # the pair (v, g) is, or will be, taken
                gv = GammaElement.monomial(v, level)
                comms.append((tau(gg, gv) - tau(gv, gg)).terms)
    return tuple(GammaElement(row, level) for _, row, _ in eliminate(comms))


def _commutators(d: tuple[int, ...], level: int | None):
    """Groups (e, ``_commutator_basis(e, level)``) for every e <= d with
    |e| >= 2, by decreasing (|e|, e).

    Their left multiples span, over Z, the same lattice as the left
    multiples of every commutator [u, v] of basis monomials, which is the
    commutator ideal in multidegree d.  Every monomial is an integer
    tau-polynomial in the generators w^(k) (``reduce_to_single_generators``),
    and [u1 u2, v] = u1 [u2, v] + [u1, v] u2 reduces [u, v] to left and right
    multiples of the [g, v].  A right multiple is a left one:
    [g, v] b = [g, v b] - v [g, b], where v b is an integer combination of
    monomials.
    """
    return [(e, _commutator_basis(e, level))
            for e in reversed(_sub_multidegrees(d)) if sum(e) >= 2]


def abelianized_piece(n: int | None, d: tuple[int, ...]
                      ) -> tuple[list[DPMonomial], ExactMatrix]:
    """Standard basis of the level-n slice at multidegree d (of the limit
    ring for n None) together with an echelon Z-basis of its commutator
    relations, whose cokernel is the abelianized slice: the dense pivot
    rows of one ``eliminate`` of the sparse left multiples."""
    basis = enumerate_dp_monomials(d, n)
    index = {m: i for i, m in enumerate(basis)}
    pivots = eliminate(_left_multiples(d, n, _commutators(d, n), index))
    return basis, ExactMatrix([[row.get(i, 0) for i in range(len(basis))]
                               for _, row, _ in pivots], len(basis))


def _on_columns(terms: dict, cols) -> dict:
    """The entries of a sparse row in the given columns."""
    return {c: terms[c] for c in cols if c in terms}


def _combine(pairs) -> dict:
    """The sparse sum of c * v over the (int c, sparse row v) pairs."""
    acc: dict = {}
    for c, v in pairs:
        poly_add_scaled(acc, v, c)
    return acc


def _int_matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _mixed_minor_coefficient(mats: list, exponents, n: int) -> int:
    """The coefficient of t_0^(n-|a|) prod_k t_k^(a_k) in det(t_0 I +
    sum_k t_k mats[k]), for integer n x n matrices and |a| <= n.

    The determinant is linear in each row, so this is the sum, over the
    row sets T with |T| = |a| and the distinct labellings of T taking each
    k a_k times, of the minor on T whose row i comes from the matrix of
    i's label.
    """
    labels = [k for k, e in enumerate(exponents) for _ in range(e)]
    labellings = list(distinct_permutations(labels))
    return sum(det_cofactor([[mats[k][i][j] for j in rows]
                             for k, i in zip(labelling, rows)])
               for rows in combinations(range(n), len(labels))
               for labelling in labellings)


def _slice_spot_check(inv: MatrixInvariants, basis, rows, d, seed) -> bool:
    """Evaluate the context's polynomials at one random integer point of
    its slice.  Deterministic per (seed, inv.n, d).

    ``rows`` are the ``pi_coefficients`` of the basis.  Every e_i
    polynomial they name must take the value of the i-th coefficient of
    ``charpoly_coeffs`` of its necklace's integer word matrix at the
    point, one characteristic polynomial per necklace: so the e_i are
    invariants, on which the slice is injective.  For one basis monomial
    drawn from the seed, its full ``pi_monomial`` image and its C row must
    take the same value, and that must be the mixed-minor coefficient of
    det(t_0 I + sum_k t_k M_k), M_k the integer word matrices of its
    words, which ties C to the determinant.

    The slice letter's diagonal entries are drawn from 1..7, so that at
    n >= 2 its trace differs from each one of them; every other entry is
    drawn from -3..3.
    """
    n = inv.n
    rng = random.Random(f"{seed}:{n}:{d}")
    mats = [[[(rng.randint(1, 7) if i == j else 0) if s == inv.diagonal
              else rng.randint(-3, 3) for j in range(n)] for i in range(n)]
            for s in range(len(inv.alphabet))]

    def word_value(w: Word) -> list:
        return reduce(_int_matmul, map(mats.__getitem__, w))

    k = rng.randrange(len(basis))
    pick = basis[k]
    image = inv.pi_monomial(pick)
    es = {f: inv.e_poly(*f) for row in rows for key in row for f in key}
    char = {w: charpoly_coeffs(word_value(w)) for w in {w for w, _ in es}}
    table = inv.ring.monomial_values(
        set(image.terms).union(*(p.terms for p in es.values())),
        [a for m in mats for row in m for a in row])
    if any(p.value_in(table) != char[w][i] for (w, i), p in es.items()):
        return False
    value = sum(c * prod(char[w][i] for w, i in key)
                for key, c in rows[k].items())
    return image.value_in(table) == value == _mixed_minor_coefficient(
        [word_value(w) for w, _ in pick.factors],
        [e for _, e in pick.factors], n)


def verify_thm_2_2_2(n: int, max_total_degree: int, alphabet: Alphabet,
                     strict_z: bool = False, seed: int | None = None
                     ) -> list[VerifyEntry]:
    """Per multidegree: the abelianized divided-power slice and the
    invariant-ring slice have equal ranks, and the kernel of the pairing on
    the slice is exactly the commutator span."""
    return [verify_thm_2_2_2_cell(n, d, alphabet, strict_z, seed)
            for d in multidegrees(len(alphabet), max_total_degree)]


def verify_thm_2_2_2_cell(n: int, d: tuple[int, ...], alphabet: Alphabet,
                          strict_z: bool = False, seed: int | None = None
                          ) -> VerifyEntry:
    """One multidegree of ``verify_thm_2_2_2``, with pi read as C * P: C
    the integer ``pi_coefficients`` rows of the basis, P the span's
    products of e_i.

    The span's ``eliminate`` pivots sit in columns J, and each pivot row is
    zero at every earlier pivot's column, so projecting onto J is
    injective on the span's row space, which holds every pi image.  So
    every rank, the relations lying in ker(pi), and (under ``strict_z``)
    Z-membership can be read on J, from C times the projected products.
    The products live on the diagonal slice of the letter of largest
    degree in d, the first one on ties.
    """
    inv = MatrixInvariants.get(alphabet, n, d.index(max(d)))
    basis, rel = abelianized_piece(n, d)
    rel_rank = rel.rank()
    torsion = tuple(rel.smith_normal_form()) if strict_z else None
    lhs_rank = len(basis) - rel_rank

    # eliminate takes over its rows: the span lives in the product cache
    span_pivots = eliminate(dict(p.terms) for p in inv.invariant_span(d))
    rhs_rank = len(span_pivots)
    cols = [c for c, _, _ in span_pivots]
    rows = [inv.pi_coefficients(m) for m in basis]
    on_j = {key: _on_columns(inv.product(d, key).terms, cols)
            for key in set().union(*rows)}
    pi_j = [_combine((c, on_j[key]) for key, c in row.items())
            for row in rows]
    in_kernel = not any(_combine(zip(r, pi_j)) for r in rel.rows)
    pi_pivots = eliminate(pi_j)
    kernel_rank = len(basis) - len(pi_pivots)

    passed = lhs_rank == rhs_rank and kernel_rank == rel_rank and in_kernel
    if strict_z:
        # torsion-free relations, and the pi-image lattice already holds
        # the span's lattice, whose Z-basis is the span pivots
        reduced = (reduce_row(pi_pivots, _on_columns(row, cols))
                   for _, row, _ in span_pivots)
        passed = passed and all(t == 1 for t in torsion) and not any(
            rest for _, rest in reduced)
    if seed is not None:
        if not _slice_spot_check(inv, basis, rows, d, seed):
            passed = False
    return VerifyEntry("2.2.2", n, d, lhs_rank, rhs_rank, kernel_rank,
                       passed, torsion=torsion)


def reduce_to_single_generators(m: DPMonomial, _memo: dict | None = None
                                ) -> dict[tuple[DPMonomial, ...], int]:
    """Rewrite a monomial as a tau-polynomial in single-word divided powers.

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


def tau_evaluate(expr: dict[tuple[DPMonomial, ...], int]) -> GammaElement:
    """Multiply a rewrite of ``reduce_to_single_generators`` out in the
    limit ring."""
    acc: dict[DPMonomial, int] = {}
    for factors, c in expr.items():
        product = reduce(tau, map(GammaElement.monomial, factors),
                         GammaElement.one(None))
        poly_add_scaled(acc, product.terms, c)
    return GammaElement(acc)


def _scaled_multidegree(f: FreePoly, k: int, alphabet: Alphabet
                        ) -> tuple[int, ...]:
    """k times the multidegree of f if f is homogeneous, else ()."""
    degs = {w.multidegree(len(alphabet)) for w in f.terms}
    return tuple(k * x for x in next(iter(degs))) if len(degs) == 1 else ()


def verify_plethysm_cell(a: FreePoly, n: int, i: int, alphabet: Alphabet
                         ) -> VerifyEntry:
    """dp_expand(a^n, i) == rho_a(e_i o p_n), exactly in the limit ring."""
    lhs = dp_expand(a ** n, i)
    rhs = rho_a_substitute(plethysm_e_p(i, n, n * i), a)
    return VerifyEntry("plethysm", n, _scaled_multidegree(a, n * i, alphabet),
                       0, 0, 0, lhs == rhs)


def verify_cayley_hamilton(f: FreePoly, n: int, alphabet: Alphabet
                           ) -> VerifyEntry:
    """chi_n(f) evaluates to the zero matrix under the invariant pairing
    tensored with the generic-matrix evaluation.

    ``chi_formal`` groups the terms by their divided-power monomial, so
    each distinct monomial is paired once and scales the image of its word
    polynomial.  The image is GL_n-equivariant, so it is computed on the
    diagonal slice of letter 0.
    """
    inv = MatrixInvariants.get(alphabet, n, 0)
    acc = MatrixPoly.identity(inv.ring, n, 0)
    for mono, poly in chi_formal(f, n).items():
        acc = acc + inv.jn_eval(poly) * inv.pi_monomial(mono)
    return VerifyEntry("ch", n, _scaled_multidegree(f, n, alphabet),
                       0, 0, 0, acc.is_zero())


def verify_zubkov_kernel(n: int, d: tuple[int, ...], alphabet: Alphabet
                         ) -> VerifyEntry:
    """Over one letter x, at degree d = (t,) of the limit ring, the kernel
    of the level-n projection, spanned by the basis monomials of weight
    above n, has the same rank as the ideal piece generated by the divided
    powers (x^j)^(k), k > n.

    ``kernel_rank`` is 0: every tau cell joins two powers of the one letter,
    so the ring is commutative and has no commutator relations."""
    if len(alphabet) != 1:
        raise ValueError(
            f"the Zubkov check runs over one letter, not {len(alphabet)}")
    (t,) = d
    basis = enumerate_dp_monomials(d, None)
    index = {m: i for i, m in enumerate(basis)}
    lhs_rank = sum(1 for m in basis if m.weight > n)
    powers = [((j * k,), [GammaElement.monomial(
                  DPMonomial.single(Word((0,) * j), k))])
              for j in range(1, t + 1) for k in range(n + 1, t // j + 1)]
    rhs_rank = len(eliminate(_left_multiples(d, None, powers, index)))
    return VerifyEntry("zubkov", n, d, lhs_rank, rhs_rank, 0,
                       lhs_rank == rhs_rank)


def _monomials_by_total_degree(max_total: int, alphabet: Alphabet
                               ) -> dict[int, list[DPMonomial]]:
    nletters = len(alphabet)
    by_deg: dict[int, list[DPMonomial]] = {0: [DPMonomial.one()]}
    for t in range(1, max_total + 1):
        monos: list[DPMonomial] = []
        for d in multidegrees(nletters, t, min_total=t):
            monos.extend(enumerate_dp_monomials(d, None))
        by_deg[t] = monos
    return by_deg


def verify_tau_ring_axioms(max_total: int, alphabet: Alphabet
                           ) -> VerifyEntry:
    """Associativity, identity and gradedness of tau on every ordered
    monomial triple within the total-degree bound, in the limit ring.

    The products of two monomials, u v and v w, are read from the
    ``tau_monomials`` cache."""
    nletters = len(alphabet)
    by_deg = _monomials_by_total_degree(max_total, alphabet)
    elements = {m: GammaElement.monomial(m)
                for monos in by_deg.values() for m in monos}
    degree = {m: m.multidegree(nletters) for m in elements}
    ok = True
    one = GammaElement.one(None)
    for du in range(0, max_total + 1):
        for u in by_deg[du]:
            gu = elements[u]
            if not (tau(one, gu) == gu == tau(gu, one)):
                ok = False
            for dv in range(0, max_total - du + 1):
                for v in by_deg[dv]:
                    uv = tau_monomials(u, v)
                    duv = tuple(a + b for a, b in zip(degree[u], degree[v]))
                    # a term outside the bound has no degree and fails
                    if any(degree.get(m) != duv for m in uv.terms):
                        ok = False
                    for dw in range(0, max_total - du - dv + 1):
                        for w in by_deg[dw]:
                            vw = tau_monomials(v, w)
                            if tau(uv, elements[w]) != tau(gu, vw):
                                ok = False
    return VerifyEntry("tau-axioms", 0, (), 0, 0, 0, ok)


def verify_sigma_homomorphism(max_total: int, alphabet: Alphabet, n: int
                              ) -> VerifyEntry:
    """The level-n projection is a ring map on every monomial pair within
    the bound; the level drop also commutes with the projections.

    Each monomial is projected once; the limit products are read from the
    ``tau_monomials`` cache."""
    by_deg = _monomials_by_total_degree(max_total, alphabet)
    projected = {m: sigma_n(GammaElement.monomial(m), n)
                 for monos in by_deg.values() for m in monos}
    ok = True
    for du in range(0, max_total + 1):
        for u in by_deg[du]:
            gu = GammaElement.monomial(u)
            su = projected[u]
            if n >= 1 and rho_n(su) != sigma_n(gu, n - 1):
                ok = False
            for dv in range(0, max_total - du + 1):
                for v in by_deg[dv]:
                    uv = tau_monomials(u, v)
                    if sigma_n(uv, n) != tau(su, projected[v]):
                        ok = False
    return VerifyEntry("tau-axioms", n, (), 0, 0, 0, ok)

