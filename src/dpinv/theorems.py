"""Degree-bounded executable verification of the structural theorems.

Every verifier reduces its claim to exact integer linear algebra on one
multidegree slice at a time and reports machine-checkable pass/fail
entries.  Failures are report entries, never exceptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod

from .backend import poly_add_scaled
from .exactla import ExactMatrix
from .freering import Alphabet, FreePoly, Word, compositions, enumerate_words
from .gamma import (DPMonomial, GammaElement, dp_expand,
                    enumerate_dp_monomials, rho_n, sigma_n, tau,
                    tau_monomials)
from .invariants import MatrixInvariants
from .symfunc import plethysm_e_p, rho_a_substitute


@dataclass
class VerifyEntry:
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


def _commutator_rows(d: tuple[int, ...], level: int | None,
                     index: dict[DPMonomial, int]) -> list[list[int]]:
    """Left tau-multiples a (u v - v u) landing in multidegree d.

    Right multiples are redundant: [u,v] b = b [u,v] + [[u,v], b].
    """
    rows: list[list[int]] = []
    for da in _sub_multidegrees(d):
        rest = tuple(x - y for x, y in zip(d, da))
        if sum(rest) < 2:
            continue
        a_monos = enumerate_dp_monomials(da, level)
        if not a_monos:
            continue
        for du in _sub_multidegrees(rest):
            if sum(du) == 0:
                continue
            dv = tuple(x - y for x, y in zip(rest, du))
            if sum(dv) == 0 or du > dv:
                continue
            us = enumerate_dp_monomials(du, level)
            vs = us if du == dv else enumerate_dp_monomials(dv, level)
            for iu, u in enumerate(us):
                gu = GammaElement.monomial(u, level)
                start = iu + 1 if du == dv else 0
                for v in vs[start:]:
                    gv = GammaElement.monomial(v, level)
                    comm = tau(gu, gv) - tau(gv, gu)
                    if comm.is_zero():
                        continue
                    for a in a_monos:
                        row_el = tau(GammaElement.monomial(a, level), comm)
                        if not row_el.is_zero():
                            rows.append(row_el.coeff_vector(index))
    return rows


def abelianized_piece(n: int, d: tuple[int, ...]
                      ) -> tuple[list[DPMonomial], ExactMatrix]:
    """Standard basis of the level-n slice at multidegree d together with
    the commutator-relation matrix whose cokernel is the abelianized slice."""
    basis = enumerate_dp_monomials(d, n)
    index = {m: i for i, m in enumerate(basis)}
    rows = _commutator_rows(d, n, index)
    return basis, ExactMatrix(rows, len(basis))


def _random_unimodular(rng: random.Random, n: int
                       ) -> tuple[list[list[int]], list[list[int]]]:
    """A product of one elementary integer matrix per ordered pair of
    distinct indices, in random order, and its inverse."""
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        c = rng.choice((-2, -1, 1, 2))
        # row j += c * row i on g; the inverse undoes it on the columns
        for k in range(n):
            g[j][k] += c * g[i][k]
            ginv[k][i] -= c * ginv[k][j]
    return g, ginv


def _conjugation_spot_check(inv: MatrixInvariants, polys, d, seed, n) -> bool:
    """Specialize the generic matrices randomly and conjugate: none of the
    given polynomials may move.  Deterministic per (seed, n, d).

    Each point's monomial values come from one table shared by every
    polynomial, so a monomial is evaluated once per point.
    """
    if not polys:
        return True
    rng = random.Random(f"{seed}:{n}:{d}")
    nletters = len(inv.alphabet)
    mats = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            for _ in range(nletters)]
    g, ginv = _random_unimodular(rng, n)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    flat = [a for m in mats for row in m for a in row]
    flat_c = [a for m in mats for row in mul(mul(g, m), ginv) for a in row]
    keys = set().union(*(p.terms for p in polys))
    at = inv.ring.monomial_values(keys, flat)
    at_c = inv.ring.monomial_values(keys, flat_c)
    return all(p.value_in(at) == p.value_in(at_c) for p in polys)


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
    inv = MatrixInvariants.get(alphabet, n)
    basis, rel = abelianized_piece(n, d)
    # under --strict-z the ranks of rel and pi are read off their Smith forms
    torsion = tuple(rel.smith_normal_form()) if strict_z else None
    rel_rank = len(torsion) if strict_z else rel.rank()
    lhs_rank = len(basis) - rel_rank

    span = inv.invariant_span(d)
    pi_polys = [inv.pi_monomial(m) for m in basis]
    keys = sorted({k for p in pi_polys for k in p.terms}
                  | {k for p in span for k in p.terms})
    cols = {k: i for i, k in enumerate(keys)}
    span_rows = [p.coeff_vector(cols) for p in span]
    pi_rows = [p.coeff_vector(cols) for p in pi_polys]
    rhs_rank = ExactMatrix(span_rows, len(cols)).rank()
    pi_mat = ExactMatrix(pi_rows, len(cols))
    pi_divisors = pi_mat.smith_normal_form() if strict_z else None
    pi_rank = len(pi_divisors) if strict_z else pi_mat.rank()
    kernel_rank = len(basis) - pi_rank

    passed = (lhs_rank == rhs_rank) and (kernel_rank == rel_rank)
    if strict_z:
        if any(t != 1 for t in torsion):
            passed = False
        # the pi-image lattice must already contain the spanning set over Z
        both = ExactMatrix(pi_rows + span_rows, len(cols)).smith_normal_form()
        if len(both) != pi_rank or prod(pi_divisors) != prod(both):
            passed = False
    if seed is not None:
        if not _conjugation_spot_check(inv, pi_polys, d, seed, n):
            passed = False
    return VerifyEntry("2.2.2", n, d, lhs_rank, rhs_rank, kernel_rank,
                       passed, torsion=torsion)


class TauExpr:
    """Expression tree over single-word divided powers combined by tau."""

    def eval(self) -> GammaElement:
        raise NotImplementedError


@dataclass
class TauOne(TauExpr):
    def eval(self) -> GammaElement:
        return GammaElement.one(None)


@dataclass
class TauLeaf(TauExpr):
    word: Word
    exp: int

    def eval(self) -> GammaElement:
        return GammaElement.monomial(DPMonomial.single(self.word, self.exp))


@dataclass
class TauProduct(TauExpr):
    left: TauExpr
    right: TauExpr

    def eval(self) -> GammaElement:
        return tau(self.left.eval(), self.right.eval())


@dataclass
class TauSum(TauExpr):
    terms: list = field(default_factory=list)  # (coefficient, TauExpr)

    def eval(self) -> GammaElement:
        acc: dict[DPMonomial, int] = {}
        for c, e in self.terms:
            poly_add_scaled(acc, e.eval().terms, c)
        return GammaElement(acc)


def reduce_to_single_generators(m: DPMonomial,
                                _memo: dict | None = None) -> TauExpr:
    """Rewrite a multi-word monomial as a tau-polynomial in single-word
    divided powers.

    Splitting off the first factor, the tau product with the remainder
    reproduces the monomial plus correction terms of strictly smaller
    weight (those with at least one interior concatenation cell), which
    are reduced recursively.
    """
    if _memo is None:
        _memo = {}
    cached = _memo.get(m)
    if cached is not None:
        return cached
    if m.is_one():
        expr: TauExpr = TauOne()
    elif len(m.factors) == 1:
        w, e = m.factors[0]
        expr = TauLeaf(w, e)
    else:
        (w1, a1) = m.factors[0]
        rest = DPMonomial(m.factors[1:])
        product = tau_monomials(DPMonomial.single(w1, a1), rest).terms
        expr = TauSum(
            [(1, TauProduct(TauLeaf(w1, a1),
                            reduce_to_single_generators(rest, _memo)))]
            + [(-c, reduce_to_single_generators(mono, _memo))
               for mono, c in product.items() if mono != m])
    _memo[m] = expr
    return expr


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


def verify_plethysm(n_list, i_list, elements, alphabet: Alphabet
                    ) -> list[VerifyEntry]:
    """verify_plethysm_cell on every (element, n, i)."""
    return [verify_plethysm_cell(a, n, i, alphabet)
            for a in elements for n in n_list for i in i_list]


def verify_cayley_hamilton(f: FreePoly, n: int, alphabet: Alphabet
                           ) -> VerifyEntry:
    """chi_n(f) evaluates to the zero matrix under the invariant pairing
    tensored with the generic-matrix evaluation."""
    from .gamma import chi_formal
    from .invariants import MatrixPoly

    inv = MatrixInvariants.get(alphabet, n)
    chi = chi_formal(f, n)
    acc = MatrixPoly.identity(inv.ring, n, 0)
    for (mono, w), c in chi.terms.items():
        acc = acc + inv.word_matrix(w) * inv.pi_monomial(mono) * c
    return VerifyEntry("ch", n, _scaled_multidegree(f, n, alphabet),
                       0, 0, 0, acc.is_zero())


def verify_zubkov_kernel(n: int, d: tuple[int, ...], alphabet: Alphabet
                         ) -> VerifyEntry:
    """In the abelianized limit ring at multidegree d, the kernel of the
    level-n projection has the same rank as the ideal piece generated by
    the divided powers f^(k), k > n, of spanning words."""
    basis = enumerate_dp_monomials(d, None)
    index = {m: i for i, m in enumerate(basis)}
    comm = _commutator_rows(d, None, index)
    comm_rank = ExactMatrix(comm, len(basis)).rank()

    ker_rows = [GammaElement.monomial(m).coeff_vector(index)
                for m in basis if m.weight > n]
    lhs_rank = ExactMatrix(ker_rows + comm, len(basis)).rank() - comm_rank

    ideal_rows: list[list[int]] = []
    total = sum(d)
    for w in enumerate_words(len(alphabet), max_multidegree=d):
        wd = w.multidegree(len(alphabet))
        for k in range(n + 1, total + 1):
            scaled = tuple(k * x for x in wd)
            if any(a > b for a, b in zip(scaled, d)):
                break
            gen = GammaElement.monomial(DPMonomial.single(w, k))
            rest = tuple(b - a for a, b in zip(scaled, d))
            for a in enumerate_dp_monomials(rest, None):
                row_el = tau(GammaElement.monomial(a), gen)
                if not row_el.is_zero():
                    ideal_rows.append(row_el.coeff_vector(index))
    rhs_rank = ExactMatrix(ideal_rows + comm, len(basis)).rank() - comm_rank
    return VerifyEntry("zubkov", n, d, lhs_rank, rhs_rank, comm_rank,
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
    monomial triple within the total-degree bound, in the limit ring."""
    nletters = len(alphabet)
    by_deg = _monomials_by_total_degree(max_total, alphabet)
    ok = True
    one = GammaElement.one(None)
    for du in range(0, max_total + 1):
        for u in by_deg[du]:
            gu = GammaElement.monomial(u)
            if not (tau(one, gu) == gu == tau(gu, one)):
                ok = False
            for dv in range(0, max_total - du + 1):
                for v in by_deg[dv]:
                    gv = GammaElement.monomial(v)
                    uv = tau(gu, gv)
                    duv = tuple(a + b for a, b in
                                zip(u.multidegree(nletters),
                                    v.multidegree(nletters)))
                    if any(m.multidegree(nletters) != duv for m in uv.terms):
                        ok = False
                    for dw in range(0, max_total - du - dv + 1):
                        for w in by_deg[dw]:
                            gw = GammaElement.monomial(w)
                            if tau(uv, gw) != tau(gu, tau(gv, gw)):
                                ok = False
    return VerifyEntry("tau-axioms", 0, (), 0, 0, 0, ok)


def verify_sigma_homomorphism(max_total: int, alphabet: Alphabet, n: int
                              ) -> VerifyEntry:
    """The level-n projection is a ring map on every monomial pair within
    the bound; the level drop also commutes with the projections."""
    by_deg = _monomials_by_total_degree(max_total, alphabet)
    ok = True
    for du in range(0, max_total + 1):
        for u in by_deg[du]:
            gu = GammaElement.monomial(u)
            su = sigma_n(gu, n)
            if n >= 1 and rho_n(su) != sigma_n(gu, n - 1):
                ok = False
            for dv in range(0, max_total - du + 1):
                for v in by_deg[dv]:
                    gv = GammaElement.monomial(v)
                    if sigma_n(tau(gu, gv), n) != tau(su, sigma_n(gv, n)):
                        ok = False
    return VerifyEntry("tau-axioms", n, (), 0, 0, 0, ok)


def verify_tau_axioms(max_total: int, alphabet: Alphabet, n_list
                      ) -> list[VerifyEntry]:
    """Ring axioms in the limit plus the projection checks for each n."""
    return [verify_tau_ring_axioms(max_total, alphabet)] + \
        [verify_sigma_homomorphism(max_total, alphabet, n) for n in n_list]
