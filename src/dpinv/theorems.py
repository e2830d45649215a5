"""Degree-bounded executable verification of the structural theorems.

Every verifier reduces its claim to exact integer linear algebra on one
multidegree slice at a time and reports machine-checkable pass/fail
entries.  Failures are report entries, never exceptions.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .exactla import ExactMatrix
from .freering import Alphabet, FreePoly, Word, enumerate_words
from .gamma import (DPMonomial, GammaElement, dp_expand, enumerate_dp_monomials,
                    merge_factors, rho_n, sigma_n, tau)
from .invariants import MatrixInvariants, det_cofactor
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
    millis: int = 0
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
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, acc: list[int]) -> None:
        if i == nletters - 1:
            acc.append(rem)
            out.append(tuple(acc))
            acc.pop()
            return
        for v in range(rem + 1):
            acc.append(v)
            rec(i + 1, rem - v, acc)
            acc.pop()

    for total in range(min_total, max_total + 1):
        rec(0, total, [])
    out.sort(key=lambda d: (sum(d), d))
    return out


def _sub_multidegrees(d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All e with 0 <= e <= d componentwise, by (|e|, e)."""
    out = list(itertools.product(*(range(x + 1) for x in d)))
    out.sort(key=lambda e: (sum(e), e))
    return out


def _vec(g: GammaElement, index: dict[DPMonomial, int]) -> list[int]:
    row = [0] * len(index)
    for m, c in g.terms.items():
        row[index[m]] = c
    return row


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
                            rows.append(_vec(row_el, index))
    return rows


def abelianized_piece(n: int, d: tuple[int, ...]
                      ) -> tuple[list[DPMonomial], ExactMatrix]:
    """Standard basis of the level-n slice at multidegree d together with
    the commutator-relation matrix whose cokernel is the abelianized slice."""
    basis = enumerate_dp_monomials(d, n)
    index = {m: i for i, m in enumerate(basis)}
    rows = _commutator_rows(d, n, index)
    return basis, ExactMatrix(rows, len(basis))


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(3, 6)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            g[j][k] += c * g[i][k]
    return g


def _conjugation_spot_check(inv: MatrixInvariants, polys, d, seed, n) -> bool:
    """Specialize the generic matrices randomly and conjugate: none of the
    given polynomials may move.  Deterministic per (seed, n, d)."""
    if not polys:
        return True
    rng = random.Random(f"{seed}:{n}:{d}")
    nletters = len(inv.alphabet)
    mats = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            for _ in range(nletters)]
    g = _random_unimodular(rng, n)
    # inverse of a unimodular integer matrix via adjugate over Fractions
    det = det_cofactor(g)
    ginv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [row[:i] + row[i + 1:]
                   for k, row in enumerate(g) if k != j]
            ginv[i][j] = Fraction((-1) ** (i + j) * det_cofactor(sub), det)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    conj = []
    for m in mats:
        c = mul(mul(g, m), ginv)
        conj.append([[int(x) for x in row] for row in c])
    flat = [a for m in mats for row in m for a in row]
    flat_c = [a for m in conj for row in m for a in row]
    return all(p.evaluate(flat) == p.evaluate(flat_c) for p in polys)


def verify_thm_2_2_2(n: int, max_total_degree: int, alphabet: Alphabet,
                     strict_z: bool = False, seed: int | None = None,
                     timing: bool = False) -> list[VerifyEntry]:
    """Per multidegree: the abelianized divided-power slice and the
    invariant-ring slice have equal ranks, and the kernel of the pairing on
    the slice is exactly the commutator span."""
    entries = []
    for d in multidegrees(len(alphabet), max_total_degree):
        entries.append(verify_thm_2_2_2_cell(n, d, alphabet, strict_z, seed,
                                             timing))
    return entries


def verify_thm_2_2_2_cell(n: int, d: tuple[int, ...], alphabet: Alphabet,
                          strict_z: bool = False, seed: int | None = None,
                          timing: bool = False) -> VerifyEntry:
    t0 = time.perf_counter()
    inv = MatrixInvariants.get(alphabet, n)
    basis, rel = abelianized_piece(n, d)
    rel_rank = rel.rank()
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
    pi_rank = pi_mat.rank()
    kernel_rank = len(basis) - pi_rank

    passed = (lhs_rank == rhs_rank) and (kernel_rank == rel_rank)
    torsion = None
    if strict_z:
        torsion = tuple(rel.smith_normal_form())
        if any(t != 1 for t in torsion):
            passed = False
        # the pi-image lattice must already contain the spanning set over Z
        both = ExactMatrix(pi_rows + span_rows, len(cols))
        if both.rank() != pi_rank or \
                prod(pi_mat.smith_normal_form()) != prod(both.smith_normal_form()):
            passed = False
    if seed is not None:
        if not _conjugation_spot_check(inv, pi_polys, d, seed, n):
            passed = False
    millis = int((time.perf_counter() - t0) * 1000) if timing else 0
    return VerifyEntry("2.2.2", n, d, lhs_rank, rhs_rank, kernel_rank,
                       passed, millis, torsion)


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
        acc = GammaElement.zero(None)
        for c, e in self.terms:
            acc = acc + e.eval() * c
        return acc


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
        terms: list = [(1, TauProduct(TauLeaf(w1, a1),
                                      reduce_to_single_generators(rest, _memo)))]
        cols = rest.factors

        def rec(j: int, left: int, picked: list[int]) -> None:
            if j == len(cols):
                if sum(picked) == 0:
                    return
                pairs = []
                slack = a1 - sum(picked)
                if slack:
                    pairs.append((w1, slack))
                for (wj, aj), gj in zip(cols, picked):
                    if aj - gj:
                        pairs.append((wj, aj - gj))
                for (wj, _), gj in zip(cols, picked):
                    if gj:
                        pairs.append((w1 + wj, gj))
                coeff, mono = merge_factors(pairs)
                terms.append((-coeff,
                              reduce_to_single_generators(mono, _memo)))
                return
            top = min(left, cols[j][1])
            for gj in range(top + 1):
                picked.append(gj)
                rec(j + 1, left - gj, picked)
                picked.pop()

        rec(0, a1, [])
        expr = TauSum(terms)
    _memo[m] = expr
    return expr


def verify_plethysm(n_list, i_list, elements, alphabet: Alphabet,
                    timing: bool = False) -> list[VerifyEntry]:
    """dp_expand(a^n, i) == rho_a(e_i o p_n), exactly in the limit ring."""
    entries = []
    for a in elements:
        for n in n_list:
            for i in i_list:
                t0 = time.perf_counter()
                lhs = dp_expand(a ** n, i)
                rhs = rho_a_substitute(plethysm_e_p(i, n, n * i), a)
                degs = {w.multidegree(len(alphabet)) for w in a.terms}
                d = (tuple(n * i * x for x in next(iter(degs)))
                     if len(degs) == 1 else ())
                millis = int((time.perf_counter() - t0) * 1000) if timing else 0
                entries.append(VerifyEntry("plethysm", n, d, 0, 0, 0,
                                           lhs == rhs, millis))
    return entries


def verify_cayley_hamilton(f: FreePoly, n: int, alphabet: Alphabet,
                           timing: bool = False) -> VerifyEntry:
    """chi_n(f) evaluates to the zero matrix under the invariant pairing
    tensored with the generic-matrix evaluation."""
    from .gamma import chi_formal
    from .invariants import MatrixPoly

    t0 = time.perf_counter()
    inv = MatrixInvariants.get(alphabet, n)
    chi = chi_formal(f, n)
    acc = MatrixPoly.identity(inv.ring, n, 0)
    for (mono, w), c in chi.terms.items():
        acc = acc + inv.word_matrix(w) * inv.pi_monomial(mono) * c
    degs = {w.multidegree(len(alphabet)) for w in f.terms}
    d = tuple(n * x for x in next(iter(degs))) if len(degs) == 1 else ()
    millis = int((time.perf_counter() - t0) * 1000) if timing else 0
    return VerifyEntry("ch", n, d, 0, 0, 0, acc.is_zero(), millis)


def verify_zubkov_kernel(n: int, d: tuple[int, ...], alphabet: Alphabet,
                         timing: bool = False) -> VerifyEntry:
    """In the abelianized limit ring at multidegree d, the kernel of the
    level-n projection has the same rank as the ideal piece generated by
    the divided powers f^(k), k > n, of spanning words."""
    t0 = time.perf_counter()
    basis = enumerate_dp_monomials(d, None)
    index = {m: i for i, m in enumerate(basis)}
    comm = _commutator_rows(d, None, index)
    comm_rank = ExactMatrix(comm, len(basis)).rank()

    ker_rows = [_vec(GammaElement.monomial(m), index)
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
                    ideal_rows.append(_vec(row_el, index))
    rhs_rank = ExactMatrix(ideal_rows + comm, len(basis)).rank() - comm_rank
    millis = int((time.perf_counter() - t0) * 1000) if timing else 0
    return VerifyEntry("zubkov", n, d, lhs_rank, rhs_rank, comm_rank,
                       lhs_rank == rhs_rank, millis)


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


def verify_tau_ring_axioms(max_total: int, alphabet: Alphabet,
                           timing: bool = False) -> VerifyEntry:
    """Associativity, identity and gradedness of tau on every ordered
    monomial triple within the total-degree bound, in the limit ring."""
    nletters = len(alphabet)
    by_deg = _monomials_by_total_degree(max_total, alphabet)
    t0 = time.perf_counter()
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
    millis = int((time.perf_counter() - t0) * 1000) if timing else 0
    return VerifyEntry("tau-axioms", 0, (), 0, 0, 0, ok, millis)


def verify_sigma_homomorphism(max_total: int, alphabet: Alphabet, n: int,
                              timing: bool = False) -> VerifyEntry:
    """The level-n projection is a ring map on every monomial pair within
    the bound; the level drop also commutes with the projections."""
    by_deg = _monomials_by_total_degree(max_total, alphabet)
    t0 = time.perf_counter()
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
    millis = int((time.perf_counter() - t0) * 1000) if timing else 0
    return VerifyEntry("tau-axioms", n, (), 0, 0, 0, ok, millis)


def verify_tau_axioms(max_total: int, alphabet: Alphabet, n_list,
                      timing: bool = False) -> list[VerifyEntry]:
    """Ring axioms in the limit plus the projection checks for each n."""
    entries = [verify_tau_ring_axioms(max_total, alphabet, timing)]
    for n in n_list:
        entries.append(verify_sigma_homomorphism(max_total, alphabet, n,
                                                 timing))
    return entries
