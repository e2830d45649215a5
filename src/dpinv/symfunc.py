"""Symmetric polynomials in a bounded number of variables.

Only what the divided-power identities need: the monomial and elementary
bases, base change by leading-term elimination, plethysm of e_i by a power
sum (the monomial function of a rectangular partition), and the
substitution e_j -> f^(j) into the divided-power ring.

The base change works on partitions alone.  The coefficient of m_mu in
e_lam is the number of 0-1 matrices with row sums lam and column sums mu
(Macdonald, *Symmetric Functions and Hall Polynomials*, I.6 (6.6)-(6.7)),
which ``zero_one_count`` counts; it is nonzero only when mu is dominated
by the conjugate of lam (Gale-Ryser), and 1 when mu is that conjugate.
No monomial in the variables is ever built.
"""

from __future__ import annotations

import functools
import itertools
import math

from .backend import combine, poly_add_scaled
from .freering import FreePoly, Scanner, format_signed_sum, multisets
from .gamma import GammaElement, dp_expand, tau

Partition = tuple[int, ...]


def check_partition(alpha) -> Partition:
    alpha = tuple(alpha)
    if any(a <= 0 for a in alpha):
        raise ValueError("partition parts must be positive")
    if any(alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return alpha


def partitions(weight: int, max_parts: int | None = None) -> list[Partition]:
    """Partitions of the given weight, largest-first order."""
    return [sum(((weight - k,) * e for k, e in picks), ())
            for picks in multisets([(p,) for p in range(weight, 0, -1)],
                                   (weight,), max_parts)]


def conjugate(alpha: Partition) -> Partition:
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= j)
                 for j in range(1, alpha[0] + 1))


@functools.lru_cache(maxsize=1 << 14)
def zero_one_count(rows: Partition, cols: Partition) -> int:
    """Number of 0-1 matrices with row sums rows and column sums cols.

    Neither order matters, so both are partitions.  Transposing swaps
    them, so the recursion peels a row off the side with fewer parts, and
    its depth is at most the number of parts of cols, that is, at most the
    number of variables.  A row of k takes j of the m columns in each run
    of equal sums, in comb(m, j) ways; the sums left stay weakly
    decreasing.
    """
    if len(rows) > len(cols):
        return zero_one_count(cols, rows)
    if not rows:
        return int(not cols)
    first, rest = rows[0], rows[1:]
    runs = [(v, len(list(g))) for v, g in itertools.groupby(cols)]
    total = 0
    for picks in itertools.product(*(range(min(m, first) + 1)
                                     for _, m in runs)):
        if sum(picks) != first:
            continue
        ways, left = 1, []
        for (v, m), j in zip(runs, picks):
            ways *= math.comb(m, j)
            left += [v] * (m - j) + [v - 1] * j
        total += ways * zero_one_count(rest, tuple(x for x in left if x))
    return total


def _e_to_m(lam: Partition, nvars: int) -> dict[Partition, int]:
    """e_lam in the m-basis over nvars variables."""
    return {mu: c for mu in partitions(sum(lam), max_parts=nvars)
            if (c := zero_one_count(lam, mu))}


class SymPoly:
    """Symmetric polynomial in the m- or e-basis over nvars variables."""

    __slots__ = ("basis", "terms", "nvars")

    def __init__(self, basis: str, terms: dict[Partition, int], nvars: int):
        if basis not in ("m", "e"):
            raise ValueError("basis must be 'm' or 'e'")
        if nvars < 0:
            raise ValueError(f"negative variable count {nvars}")
        clean = {}
        for p, c in terms.items():
            p = check_partition(p)
            if basis == "e" and any(part > nvars for part in p):
                raise ValueError(f"e_{max(p)} vanishes in {nvars} variables")
            if basis == "m" and len(p) > nvars:
                raise ValueError(f"m_{p} vanishes in {nvars} variables")
            if c:
                clean[p] = c
        self.basis = basis
        self.terms = clean
        self.nvars = nvars

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymPoly) and self.basis == other.basis
                and self.nvars == other.nvars and self.terms == other.terms)

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        # weight, then reverse-lex inside a weight
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0]), tuple(-p for p in t[0])))

    def __repr__(self) -> str:
        return f"SymPoly({self.basis!r}, {self.terms!r}, nvars={self.nvars})"


def m_to_e(alpha, nvars: int) -> SymPoly:
    """Expand a monomial symmetric function in the elementary basis.

    Leading-term elimination: peel off the lex-greatest partition lead with
    e of its conjugate, whose m-expansion has lead with coefficient 1 and
    otherwise only partitions it dominates, and repeat.  The leads strictly
    decrease, so each partition is peeled at most once.
    """
    alpha = check_partition(alpha)
    if len(alpha) > nvars:
        raise ValueError(
            f"m_{alpha} needs at least {len(alpha)} variables, got {nvars}")
    work = {alpha: 1}
    result: dict[Partition, int] = {}
    while work:
        lead = max(work)
        c = work[lead]
        lam = conjugate(lead)
        result[lam] = c
        poly_add_scaled(work, _e_to_m(lam, nvars), -c)
    return SymPoly("e", result, nvars)


def plethysm_e_p(i: int, n: int, nvars: int) -> SymPoly:
    """e_i composed with the n-th power sum, in the e-basis.

    e_i o p_n is m_(n^i), the monomial function of the partition (n,) * i,
    so this is its ``m_to_e``; exact at weight n*i provided nvars >= n*i.
    Memoized; every call returns a fresh SymPoly.
    """
    if nvars < n * i:
        raise ValueError(f"need at least {n * i} variables, got {nvars}")
    return SymPoly("e", dict(_plethysm_terms(i, n, nvars)), nvars)


@functools.lru_cache(maxsize=256)
def _plethysm_terms(i: int, n: int, nvars: int
                    ) -> tuple[tuple[Partition, int], ...]:
    return tuple(m_to_e((n,) * i, nvars).terms.items())


def rho_a_substitute(sym: SymPoly, a: FreePoly) -> GammaElement:
    """Ring map e_j -> a^(j) into the limit divided-power ring.

    An e-monomial becomes the tau-product of the divided-power expansions
    of a at each part (these commute with each other).
    """
    if sym.basis != "e":
        raise ValueError("rho_a substitution expects the e-basis")
    one = GammaElement.one(None)
    # m_to_e's order, which misses the tau_monomials cache less than sorted
    return GammaElement(combine(
        (c, functools.reduce(tau, (dp_expand(a, part) for part in lam),
                             one).terms)
        for lam, c in sym.terms.items()))


def parse_sympoly(text: str) -> SymPoly:
    """Parse ``e[2,1]`` / ``m[3,1,1]`` with optional ``@nvars`` suffix."""
    sc = Scanner(text)
    basis = sc.take("e", "m")
    if not basis:
        raise sc.error("expected basis letter 'e' or 'm'")
    sc.expect("[")
    parts = []
    if not sc.take("]"):
        parts.append(sc.integer())
        while sc.take(","):
            parts.append(sc.integer())
        sc.expect("]")
    nvars = sc.integer() if sc.take("@") else max(sum(parts), 1)
    sc.end()
    return SymPoly(basis, {tuple(parts): 1}, nvars)


def format_sympoly(sym: SymPoly) -> str:
    if not sym.terms:
        return "0"
    return format_signed_sum((c, f"{sym.basis}[{','.join(map(str, p))}]")
                             for p, c in sym.sorted_terms()) + f"@{sym.nvars}"
