"""Degree-bounded executable verification of the structural theorems.

Every verifier reduces its claim to exact integer linear algebra on one
multidegree slice at a time and reports machine-checkable pass/fail
entries.  Failures are report entries, never exceptions.

The 2.2.2 cell and the Cayley-Hamilton check compute their invariants in
a ``MatrixInvariants`` context on the diagonal slice of one letter, which
is injective on invariants and on GL_n-equivariant matrix maps (see
``dpinv.invariants``).  A seeded 2.2.2 cell tests the sliced e_i against
integer characteristic polynomials at a random point of its slice.  Its
relations are the commutator ideal of the level in its multidegree, one
``eliminate`` of the products of the ``_generators`` with the cached
ideals of smaller multidegrees (``_commutator_ideal``).  Only cells whose
multidegree is non-increasing are built so.  A permutation sigma of the
letters is an automorphism of each level, so sigma(I_d) = I_{sigma(d)},
and every other cell is its canonical cell with the letters renamed, put
through ``eliminate`` once more.  The Zubkov check ranks the ideal of the
generators of weight above n.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from math import prod
from operator import mul
from typing import NamedTuple

from .backend import combine, eliminate
from .exactla import ExactMatrix, reduce_row
from .freering import Alphabet, FreePoly, Word, compositions, multidegree
from .gamma import (DPMonomial, GammaElement, dp_expand,
                    enumerate_dp_monomials, rho_n, sigma_n, tau, tau_monomials)
from .invariants import MatrixInvariants, MatrixPoly, mixed_minor_sum
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


def _generators(f: tuple[int, ...], level: int | None) -> list[DPMonomial]:
    """The single-word divided powers w^(k) of multidegree f at the level
    (of the limit ring for None), in basis order.  They generate the ring
    over Z: every basis monomial is an integer tau-polynomial in them (the
    rewrite in ``tests/test_theorems.py`` splits off the first factor and
    recurses on the correction terms, all of smaller weight), and
    ``sigma_n`` is a ring map that sends each one to a generator of the
    level or to 0."""
    return [m for m in enumerate_dp_monomials(f, level)
            if len(m.factors) == 1]


@lru_cache(maxsize=1024)
def _commutator_ideal(d: tuple[int, ...], level: int | None
                      ) -> tuple[GammaElement, ...]:
    """The ``eliminate`` pivots, an echelon Z-basis, of the commutator
    ideal I_d of the level's ring (the limit ring for None) in multidegree
    d, built from the smaller cells:

        I_d = S_d + sum_g (g I_{d-|g|} + I_{d-|g|} g).

    g runs over the ``_generators`` of the level, the single-word divided
    powers w^(k), and S_d holds the commutators [g, h] of each unordered
    pair of them with |g| + |h| = d.  Cached, so a run builds each cell
    once: callers must treat the elements as read-only.

    Over Z this is all of I_d.  The commutator ideal is the two-sided
    ideal generated by the [g, h], by Leibniz: [ab, c] = a[b, c] + [a, c]b
    and [a, bc] = [a, b]c + b[a, c].  For this, every basis monomial must
    be an integer tau-polynomial in the generators, as ``_generators``
    shows.  So I_d is spanned over Z by the products
    p [g, h] q, with p and q products of generators.  If p is not empty,
    one such product is g (...) for its first generator g, and (...) lies
    in I_{d-|g|}.  If p is empty and q is not, it is (...) g for the last
    generator g of q.  Else it lies in S_d.  By induction on |d|, and since
    tau is bilinear, the products by g of the pivots of the smaller cells
    span these, and every row lies in I_d.  The argument needs both sides:
    the left products alone gave the same lattices on every cell tried,
    but nothing here shows that they must.

    Only canonical cells, d non-increasing, are built so.  Any other d is
    the image of one under a permutation of the letters.  ``order`` sorts
    the letters by decreasing degree, stably, so tied letters keep their
    places, and canon = (d[order[0]], d[order[1]], ...) is non-increasing.
    Renaming letter a as order[a] in every word is a permutation sigma of
    the words, and so of the basis monomials of each level, weights kept.
    tau is built from words and their concatenations alone, so sigma is a
    ring automorphism of the level, and it sends generators to generators
    and commutators to commutators: sigma(I_canon) = I_d.  So the renamed
    pivots of I_canon are a Z-basis of I_d.  Since sigma is a bijection of
    the basis, they are still in echelon form: each keeps a column where
    every later one is zero.  They go through ``eliminate`` once more, so
    that every cell is the pivots of one ``eliminate`` of its rows.  That
    elimination is unimodular, so it keeps the lattice, and its rows are
    already independent, so it is cheap.
    """
    if any(a < b for a, b in zip(d, d[1:])):
        # letter a of the canonical cell is letter order[a] of d
        order = sorted(range(len(d)), key=lambda k: -d[k])
        rows = [{DPMonomial((tuple(order[a] for a in w), e)
                            for w, e in m.factors): c
                 for m, c in x.terms.items()}
                for x in _commutator_ideal(tuple(d[k] for k in order),
                                           level)]
        return tuple(GammaElement(row, level)
                     for _, row, _ in eliminate(rows))
    gens = {f: [GammaElement.monomial(m, level)
                for m in _generators(f, level)]
            for f in _sub_multidegrees(d) if sum(f)}
    rows = []
    for f, group in gens.items():
        rest = tuple(x - y for x, y in zip(d, f))
        lower = _commutator_ideal(rest, level)
        for i, g in enumerate(group):
            # each unordered pair of generators once
            pairs = (group[i + 1:] if rest == f
                     else gens[rest] if f < rest else ())
            rows.extend((tau(g, h) - tau(h, g)).terms for h in pairs)
            for x in lower:
                rows.append(tau(g, x).terms)
                rows.append(tau(x, g).terms)
    return tuple(GammaElement(row, level) for _, row, _ in eliminate(rows))


def abelianized_piece(n: int | None, d: tuple[int, ...]
                      ) -> tuple[list[DPMonomial], ExactMatrix]:
    """Standard basis of the level-n slice at multidegree d (of the limit
    ring for n None) together with an echelon Z-basis of its commutator
    relations, whose cokernel is the abelianized slice: the pivots of
    ``_commutator_ideal`` as dense rows over the basis."""
    basis = enumerate_dp_monomials(d, n)
    index = {m: i for i, m in enumerate(basis)}
    return basis, ExactMatrix([x.coeff_vector(index)
                               for x in _commutator_ideal(d, n)], len(basis))


def _on_columns(terms: dict, cols) -> dict:
    """The entries of a sparse row in the given columns."""
    return {c: terms[c] for c in cols if c in terms}


def _int_matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _slice_spot_check(inv: MatrixInvariants, basis, rows, d, seed) -> bool:
    """Evaluate the context's polynomials at one random integer point of
    its slice.  Deterministic per (seed, inv.n, d).

    ``rows`` are the ``pi_coefficients`` of the basis.  Every e_i
    polynomial they name must take the value of ``mixed_minor_sum`` of
    its necklace's integer word matrix at the point, computed only for the
    (necklace, i) pairs the rows name: so the e_i are invariants, on which
    the slice is injective.  For one basis monomial drawn from the seed,
    its full ``pi_monomial`` image and its C row must take the same value,
    and that must be the mixed-minor coefficient of det(t_0 I + sum_k t_k
    M_k), M_k the integer word matrices of its words, which ties C to the
    determinant.

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
    values = {w: word_value(w) for w, _ in es}
    char = {(w, i): mixed_minor_sum([values[w]], (i,), n) for w, i in es}
    table = inv.ring.monomial_values(
        set(image.terms).union(*(p.terms for p in es.values())),
        [a for m in mats for row in m for a in row])
    if any(p.value_in(table) != char[f] for f, p in es.items()):
        return False
    value = sum(c * prod(map(char.__getitem__, key))
                for key, c in rows[k].items())
    return image.value_in(table) == value == mixed_minor_sum(
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
    The relations are the sparse ``_commutator_ideal`` pivots; ``rel``
    serves only its rank and Smith form.  The products live on the
    diagonal slice of the letter of largest degree in d, the first one on
    ties.
    """
    inv = MatrixInvariants.get(alphabet, n, d.index(max(d)))
    basis, rel = abelianized_piece(n, d)
    rel_rank = rel.rank()
    torsion = tuple(rel.smith_normal_form()) if strict_z else None
    lhs_rank = len(basis) - rel_rank

    # eliminate takes over its rows, so it gets copies of the span's; a
    # C-row key outside the span has its product built and dropped
    span = inv.invariant_span(d)
    span_pivots = eliminate(dict(p.terms) for p in span.values())
    rhs_rank = len(span_pivots)
    cols = [c for c, _, _ in span_pivots]
    rows = [inv.pi_coefficients(m) for m in basis]
    on_j = {key: _on_columns((span[key] if key in span
                              else inv.product(key)).terms, cols)
            for key in set().union(*rows)}
    pi_j = [combine((c, on_j[key]) for key, c in row.items())
            for row in rows]
    pi_of = dict(zip(basis, pi_j))
    in_kernel = not any(combine((c, pi_of[m]) for m, c in x.terms.items())
                        for x in _commutator_ideal(d, n))
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


def _scaled_multidegree(f: FreePoly, k: int, alphabet: Alphabet
                        ) -> tuple[int, ...]:
    """k times the multidegree of f if f is homogeneous, else ()."""
    degs = {multidegree(w, len(alphabet)) for w in f.terms}
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
    """chi_n(f) = sum_{i=0..n} (-1)^i f^(i) (x) f^(n-i) evaluates to the
    zero matrix under the invariant pairing tensored with the
    generic-matrix evaluation.

    j_n is a ring map, so that image is sum_i (-1)^i pi(f^(i)) F^(n-i),
    F = j_n(f), which Horner's rule folds as acc <- acc F + (-1)^i
    pi(f^(i)) I for i = 0..n.  The image is GL_n-equivariant, so it is
    computed on the diagonal slice of letter 0.
    """
    if f.is_zero():
        raise ValueError("the Cayley-Hamilton check requires a nonzero "
                         "argument")
    inv = MatrixInvariants.get(alphabet, n, 0)
    big_f = inv.jn_eval(f)
    acc = MatrixPoly.identity(inv.ring, n, 0)
    for i in range(n + 1):
        pi_i = inv.pi_n_eval(sigma_n(dp_expand(f, i), n))
        acc = acc * big_f + MatrixPoly.identity(inv.ring, n, (-1) ** i) * pi_i
    return VerifyEntry("ch", n, _scaled_multidegree(f, n, alphabet),
                       0, 0, 0, acc.is_zero())


def verify_zubkov_kernel(n: int, d: tuple[int, ...], alphabet: Alphabet
                         ) -> VerifyEntry:
    """Over one letter x, at degree d = (t,) of the limit ring, the kernel
    of the level-n projection, spanned by the basis monomials of weight
    above n, has the same rank as the ideal piece generated by the
    ``_generators`` (x^j)^(k) of weight k > n: one ``eliminate`` of their
    products with the basis monomials.

    ``kernel_rank`` is 0: every tau cell joins two powers of the one letter,
    so the ring is commutative (left multiples span the ideal) and has no
    commutator relations."""
    if len(alphabet) != 1:
        raise ValueError(
            f"the Zubkov check runs over one letter, not {len(alphabet)}")
    (t,) = d
    lhs_rank = sum(1 for m in enumerate_dp_monomials(d, None) if m.weight > n)
    rows = [tau(GammaElement.monomial(a), GammaElement.monomial(g)).terms
            for s in range(n + 1, t + 1)
            for g in _generators((s,), None) if g.weight > n
            for a in enumerate_dp_monomials((t - s,), None)]
    rhs_rank = len(eliminate(rows))
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
    ``tau_monomials`` cache.  The identity law is checked on every
    monomial and gradedness on every pair, and associativity only on the
    triples in which none of u, v, w is the identity.  Those checks imply
    the rest, whatever table of monomial products ``tau_monomials`` and
    ``tau`` read.  If 1 u = u = u 1 for every monomial u in the bound, and
    every product u v is graded, so that each of its monomials lies in
    the bound, then bilinearity of ``tau`` gives (1 v) w = v w = 1 (v w),
    (u 1) w = u w = u (1 w) and (u v) 1 = u v = u (v 1)."""
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
                    if not du or not dv:
                        continue    # a triple with the identity
                    for dw in range(1, max_total - du - dv + 1):
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

