"""Symmetric polynomials in a bounded number of variables.

Only what the divided-power identities need: the monomial and elementary
bases, base change by leading-term elimination, plethysm by a power sum
(computed by literal substitution of n-th powers), and the substitution
e_j -> f^(j) into the divided-power ring.
"""

from __future__ import annotations

import itertools

from .backend import poly_add_scaled
from .freering import FreePoly, ParseError
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
    out: list[Partition] = []

    def rec(rem: int, largest: int, acc: list[int]) -> None:
        if rem == 0:
            out.append(tuple(acc))
            return
        if max_parts is not None and len(acc) >= max_parts:
            return
        for part in range(min(rem, largest), 0, -1):
            acc.append(part)
            rec(rem - part, part, acc)
            acc.pop()

    top = weight if max_part is None else min(weight, max_part)
    rec(weight, top, [])
    return out


def conjugate(alpha: Partition) -> Partition:
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= j)
                 for j in range(1, alpha[0] + 1))


def _monomial_orbit(alpha: Partition, nvars: int) -> dict[tuple, int]:
    """m_alpha expanded into exponent-tuple monomials over nvars variables."""
    padded = tuple(alpha) + (0,) * (nvars - len(alpha))
    return {exps: 1 for exps in set(itertools.permutations(padded))}


def _dict_mul(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            c = out.get(k, 0) + va * vb
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def _e_k_monomials(k: int, nvars: int) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for comb in itertools.combinations(range(nvars), k):
        exps = [0] * nvars
        for i in comb:
            exps[i] = 1
        out[tuple(exps)] = 1
    return out


def _e_product_monomials(lam: Partition, nvars: int) -> dict[tuple, int]:
    out = {(0,) * nvars: 1}
    for part in lam:
        out = _dict_mul(out, _e_k_monomials(part, nvars))
    return out


class SymPoly:
    """Symmetric polynomial in the m- or e-basis over nvars variables."""

    __slots__ = ("basis", "terms", "nvars")

    def __init__(self, basis: str, terms: dict[Partition, int], nvars: int):
        if basis not in ("m", "e"):
            raise ValueError("basis must be 'm' or 'e'")
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
        out: dict[tuple, int] = {}
        for p, c in self.terms.items():
            expansion = (_monomial_orbit(p, self.nvars) if self.basis == "m"
                         else _e_product_monomials(p, self.nvars))
            poly_add_scaled(out, expansion, c)
        return out

    def __repr__(self) -> str:
        return f"SymPoly({self.basis!r}, {self.terms!r}, nvars={self.nvars})"


def _monomials_to_e(mono: dict[tuple, int], nvars: int) -> dict[Partition, int]:
    """Leading-term elimination: peel off the lex-greatest monomial with the
    unique e-product sharing it, and recurse."""
    work = dict(mono)
    result: dict[Partition, int] = {}
    while work:
        lead = max(work)
        c = work[lead]
        lam = conjugate(tuple(e for e in lead if e))
        result[lam] = result.get(lam, 0) + c
        poly_add_scaled(work, _e_product_monomials(lam, nvars), -c)
    return {p: c for p, c in result.items() if c}


def m_to_e(alpha, nvars: int) -> SymPoly:
    """Expand a monomial symmetric function in the elementary basis."""
    alpha = check_partition(alpha)
    if len(alpha) > nvars:
        raise ValueError(
            f"m_{alpha} needs at least {len(alpha)} variables, got {nvars}")
    return SymPoly("e", _monomials_to_e(_monomial_orbit(alpha, nvars), nvars),
                   nvars)


def plethysm_e_p(i: int, n: int, nvars: int) -> SymPoly:
    """e_i composed with the n-th power sum, in the e-basis.

    Substitutes x_j -> x_j^n directly in the expanded form; exact at weight
    n*i provided nvars >= n*i.
    """
    if nvars < n * i:
        raise ValueError(f"need at least {n * i} variables, got {nvars}")
    substituted = {tuple(e * n for e in k): v
                   for k, v in _e_k_monomials(i, nvars).items()}
    return SymPoly("e", _monomials_to_e(substituted, nvars), nvars)


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
    total = GammaElement.zero(None)
    for lam, c in sym.sorted_terms():
        acc = GammaElement.one(None)
        for part in lam:
            acc = tau(acc, dp_expand(a, part))
        total = total + acc * c
    return total


def parse_sympoly(text: str) -> SymPoly:
    """Parse ``e[2,1]`` / ``m[3,1,1]`` with optional ``@nvars`` suffix."""
    s = text.strip()
    if not s or s[0] not in "em":
        raise ParseError("expected basis letter 'e' or 'm'", 0)
    basis = s[0]
    if len(s) < 2 or s[1] != "[":
        raise ParseError("expected '['", 1)
    close = s.find("]")
    if close < 0:
        raise ParseError("missing ']'", len(s))
    inner = s[2:close].strip()
    try:
        parts = tuple(int(p) for p in inner.split(",")) if inner else ()
    except ValueError:
        raise ParseError("bad partition entry", 2) from None
    rest = s[close + 1:].strip()
    if rest.startswith("@"):
        try:
            nvars = int(rest[1:])
        except ValueError:
            raise ParseError("bad variable count", close + 2) from None
    elif rest:
        raise ParseError(f"unexpected trailing text {rest!r}", close + 1)
    else:
        nvars = max(sum(parts), 1)
    return SymPoly(basis, {check_partition(parts): 1} if parts else {(): 1},
                   nvars)


def format_sympoly(sym: SymPoly) -> str:
    if not sym.terms:
        return "0"
    parts = []
    for p, c in sym.sorted_terms():
        body = f"{sym.basis}[{','.join(map(str, p))}]"
        frag = body if abs(c) == 1 else f"{abs(c)}*{body}"
        parts.append(("- " if c < 0 else "+ ") + frag)
    text = " ".join(parts)
    return (text[2:] if text.startswith("+ ") else "-" + text[2:]) \
        + f"@{sym.nvars}"
