"""Symmetric polynomials in a bounded number of variables.

Only what the divided-power identities need: the monomial and elementary
bases, base change by leading-term elimination, plethysm of e_i by a power
sum (the monomial function of a rectangular partition), and the
substitution e_j -> f^(j) into the divided-power ring.

Expanded polynomials are the sparse ``{packed key: int}`` dicts of
``backend``, so ``backend.poly_mul`` multiplies the e-products and
``backend.poly_add_scaled`` accumulates them.  The key format is private to
this module: the exponent of variable j sits in bit field j, and every
field is ``max(weight, 1).bit_length()`` bits wide, where weight is the
largest total degree of the polynomial being expanded.  No exponent can
exceed that weight, and the weight is below ``2**width``, so no field ever
carries and the width needs no guard.

Comparing packed keys is lex order read from the last variable.  The lead
of a symmetric polynomial is therefore its dominant partition written in
increasing order, and the partition is the lead's nonzero exponents,
reversed.  Keys are unpacked into exponent tuples only there and in
``SymPoly.to_monomials``.
"""

from __future__ import annotations

import functools
import itertools

from .backend import poly_add_scaled, poly_mul
from .freering import (FreePoly, Scanner, distinct_permutations,
                       format_signed_sum, multisets)
from .gamma import GammaElement, dp_expand, tau

Partition = tuple[int, ...]


def check_partition(alpha) -> Partition:
    alpha = tuple(alpha)
    if any(a <= 0 for a in alpha):
        raise ValueError("partition parts must be positive")
    if any(alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return alpha


def partitions(weight: int, max_parts: int | None = None,
               max_part: int | None = None) -> list[Partition]:
    """Partitions of the given weight, largest-first order."""
    top = weight if max_part is None else min(weight, max_part)
    return [sum(((top - k,) * e for k, e in picks), ())
            for picks in multisets([(p,) for p in range(top, 0, -1)],
                                   (weight,), max_parts)]


def conjugate(alpha: Partition) -> Partition:
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= j)
                 for j in range(1, alpha[0] + 1))


def _width(weight: int) -> int:
    """Field width of a key whose exponents are at most weight."""
    return max(weight, 1).bit_length()


def _unpack(key: int, nvars: int, width: int) -> tuple[int, ...]:
    mask = (1 << width) - 1
    return tuple((key >> (width * j)) & mask for j in range(nvars))


def _monomial_orbit(alpha: Partition, nvars: int, width: int) -> dict[int, int]:
    """m_alpha expanded into packed monomials over nvars variables."""
    padded = tuple(alpha) + (0,) * (nvars - len(alpha))
    return {sum(e << (width * j) for j, e in enumerate(exps)): 1
            for exps in distinct_permutations(padded)}


def _e_k_monomials(k: int, nvars: int, width: int) -> dict[int, int]:
    return {sum(1 << (width * j) for j in comb): 1
            for comb in itertools.combinations(range(nvars), k)}


def _e_product_monomials(lam: Partition, nvars: int,
                         width: int) -> dict[int, int]:
    out = {0: 1}
    for part in lam:
        out = poly_mul(out, _e_k_monomials(part, nvars, width))
    return out


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

    def to_monomials(self) -> dict[tuple, int]:
        """Expansion into exponent-tuple monomials over nvars variables."""
        nvars = self.nvars
        width = _width(max(map(sum, self.terms), default=0))
        expand = _monomial_orbit if self.basis == "m" else _e_product_monomials
        out: dict[int, int] = {}
        for p, c in self.terms.items():
            poly_add_scaled(out, expand(p, nvars, width), c)
        return {_unpack(k, nvars, width): c for k, c in out.items()}

    def __repr__(self) -> str:
        return f"SymPoly({self.basis!r}, {self.terms!r}, nvars={self.nvars})"


def _monomials_to_e(mono: dict[int, int], nvars: int,
                    width: int) -> dict[Partition, int]:
    """Leading-term elimination: peel off the lex-greatest monomial with the
    unique e-product sharing it, and recurse.  Every other monomial of that
    e-product is lex-smaller, so the leads strictly decrease and each
    partition is peeled at most once."""
    work = dict(mono)
    result: dict[Partition, int] = {}
    while work:
        lead = max(work)
        c = work[lead]
        lam = conjugate(tuple(e for e in reversed(_unpack(lead, nvars, width))
                              if e))
        result[lam] = c
        poly_add_scaled(work, _e_product_monomials(lam, nvars, width), -c)
    return result


def m_to_e(alpha, nvars: int) -> SymPoly:
    """Expand a monomial symmetric function in the elementary basis."""
    alpha = check_partition(alpha)
    if len(alpha) > nvars:
        raise ValueError(
            f"m_{alpha} needs at least {len(alpha)} variables, got {nvars}")
    width = _width(sum(alpha))
    return SymPoly("e", _monomials_to_e(_monomial_orbit(alpha, nvars, width),
                                        nvars, width), nvars)


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


def c_alpha(alpha, n: int) -> int:
    """Coefficient of e_n^(|alpha|/n) in the e-expansion of m_alpha over n
    variables; zero when n does not divide the weight."""
    alpha = check_partition(alpha)
    if len(alpha) > n:
        raise ValueError(f"partition has more than {n} parts")
    weight = sum(alpha)
    if weight % n:
        return 0
    target = (n,) * (weight // n)
    return m_to_e(alpha, n).terms.get(target, 0)


def rho_a_substitute(sym: SymPoly, a: FreePoly) -> GammaElement:
    """Ring map e_j -> a^(j) into the limit divided-power ring.

    An e-monomial becomes the tau-product of the divided-power expansions
    of a at each part (these commute with each other).
    """
    if sym.basis != "e":
        raise ValueError("rho_a substitution expects the e-basis")
    total: dict = {}
    for lam, c in sym.sorted_terms():
        acc = GammaElement.one(None)
        for part in lam:
            acc = tau(acc, dp_expand(a, part))
        poly_add_scaled(total, acc.terms, c)
    return GammaElement(total)


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
