"""Divided powers of the augmentation ideal of a free ring.

A standard-basis monomial is a finite multiset of nonempty words with
positive exponents; the identity-slot exponent n - |alpha| of a truncated
context is implicit, so the same monomial serves both the limit ring and
every truncation level.  A GammaElement carries its ambient context:
``level=None`` for the limit ring, ``level=n`` for the degree-n truncation.

The second (noncommutative) ring product ``tau`` sums over non-negative
integer matrices with prescribed margins: rows indexed by the left factor's
words plus an identity slot, columns likewise for the right factor, the
identity-identity cell forced to zero.  Interior cells concatenate words.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

from .backend import poly_add_scaled
from .freering import Alphabet, FreePoly, ParseError, Word


class ContextError(ValueError):
    """Operands live in different ambient contexts (levels)."""


class DPMonomial:
    """Product of divided powers of distinct nonempty words."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Iterable[tuple[Word, int]] = ()):
        fs = []
        seen = set()
        for w, e in factors:
            w = Word(w)
            if len(w) == 0:
                raise ValueError("divided powers of the empty word are not stored")
            if e <= 0:
                raise ValueError("exponents must be positive")
            if w in seen:
                raise ValueError("duplicate word in factor list")
            seen.add(w)
            fs.append((w, e))
        fs.sort(key=lambda p: (len(p[0]), tuple(p[0])))
        self.factors = tuple(fs)
        self._hash = hash(self.factors)

    @classmethod
    def one(cls) -> "DPMonomial":
        return cls()

    @classmethod
    def single(cls, w: Word, e: int = 1) -> "DPMonomial":
        return cls(((w, e),))

    @property
    def weight(self) -> int:
        """|alpha|: the sum of the exponents."""
        return sum(e for _, e in self.factors)

    def multidegree(self, nletters: int) -> tuple[int, ...]:
        d = [0] * nletters
        for w, e in self.factors:
            for a in w:
                d[a] += e
        return tuple(d)

    def is_one(self) -> bool:
        return not self.factors

    def sort_key(self) -> tuple:
        return tuple((len(w), tuple(w), e) for w, e in self.factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, DPMonomial) and self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    def to_str(self, alphabet: Alphabet) -> str:
        return " ".join(f"{w.to_str(alphabet)}^({e})" for w, e in self.factors)

    def __repr__(self) -> str:
        return f"DPMonomial({self.factors!r})"


def merge_factors(pairs: Iterable[tuple[Word, int]]) -> tuple[int, DPMonomial]:
    """Collect repeated words into one divided power.

    Merging w^(a) with w^(b) costs a binomial factor C(a+b, a); iterating
    gives the multinomial coefficient for each word.
    """
    coeff = 1
    exps: dict[Word, int] = {}
    for w, e in pairs:
        if e == 0:
            continue
        old = exps.get(w, 0)
        if old:
            coeff *= math.comb(old + e, e)
        exps[w] = old + e
    return coeff, DPMonomial(exps.items())


class GammaElement:
    """Integer combination of standard-basis monomials in a fixed context."""

    __slots__ = ("terms", "level")

    def __init__(self, terms: dict[DPMonomial, int] | None = None,
                 level: int | None = None):
        clean: dict[DPMonomial, int] = {}
        if terms:
            for m, c in terms.items():
                if c and (level is None or m.weight <= level):
                    clean[m] = c
        self.terms = clean
        self.level = level

    @classmethod
    def zero(cls, level: int | None = None) -> "GammaElement":
        return cls(None, level)

    @classmethod
    def one(cls, level: int | None = None) -> "GammaElement":
        return cls({DPMonomial.one(): 1}, level)

    @classmethod
    def monomial(cls, m: DPMonomial, level: int | None = None,
                 c: int = 1) -> "GammaElement":
        return cls({m: c}, level)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "GammaElement") -> None:
        if self.level != other.level:
            raise ContextError(
                f"context mismatch: {self.level!r} vs {other.level!r}")

    def __add__(self, other: "GammaElement") -> "GammaElement":
        self._check(other)
        res = GammaElement.__new__(GammaElement)
        res.terms = poly_add_scaled(dict(self.terms), other.terms, 1)
        res.level = self.level
        return res

    def __neg__(self) -> "GammaElement":
        res = GammaElement.__new__(GammaElement)
        res.terms = {m: -c for m, c in self.terms.items()}
        res.level = self.level
        return res

    def __sub__(self, other: "GammaElement") -> "GammaElement":
        return self + (-other)

    def __mul__(self, c: int) -> "GammaElement":
        res = GammaElement.__new__(GammaElement)
        res.terms = {m: v * c for m, v in self.terms.items()} if c else {}
        res.level = self.level
        return res

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, GammaElement) and self.level == other.level
                and self.terms == other.terms)

    def sorted_terms(self) -> list[tuple[DPMonomial, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def multidegrees(self, nletters: int) -> set[tuple[int, ...]]:
        return {m.multidegree(nletters) for m in self.terms}

    def to_str(self, alphabet: Alphabet) -> str:
        return format_gamma(self, alphabet)

    def __repr__(self) -> str:
        return f"GammaElement({self.terms!r}, level={self.level!r})"


def dp_product(u: DPMonomial, v: DPMonomial,
               level: int | None = None) -> GammaElement:
    """Commutative divided-power product of two basis monomials.

    Shared words contribute binomial factors; in a truncated context a
    result of weight above the level is zero.
    """
    coeff, mono = merge_factors(list(u.factors) + list(v.factors))
    if level is not None and mono.weight > level:
        return GammaElement.zero(level)
    return GammaElement.monomial(mono, level, coeff)


def dp_mul(g: GammaElement, h: GammaElement) -> GammaElement:
    """Bilinear extension of dp_product."""
    g._check(h)
    out = GammaElement.zero(g.level)
    for mu, cu in g.terms.items():
        for mv, cv in h.terms.items():
            out = out + dp_product(mu, mv, g.level) * (cu * cv)
    return out


def _interior_matrices(rowsums: tuple[int, ...], colsums: tuple[int, ...]
                       ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-negative r x c matrices with row sums <= rowsums and column
    sums <= colsums, emitted in lexicographic row-major order."""
    r, c = len(rowsums), len(colsums)

    def fill(i: int, remaining_cols: list[int],
             rows_acc: list[tuple[int, ...]]) -> Iterator[tuple]:
        if i == r:
            yield tuple(rows_acc)
            return
        budget = rowsums[i]

        def fill_row(j: int, left: int, row_acc: list[int]) -> Iterator[tuple]:
            if j == c:
                rows_acc.append(tuple(row_acc))
                yield from fill(i + 1, remaining_cols, rows_acc)
                rows_acc.pop()
                return
            top = min(left, remaining_cols[j])
            for e in range(top + 1):
                remaining_cols[j] -= e
                row_acc.append(e)
                yield from fill_row(j + 1, left - e, row_acc)
                row_acc.pop()
                remaining_cols[j] += e

        yield from fill_row(0, budget, [])

    yield from fill(0, list(colsums), [])


@functools.lru_cache(maxsize=None)
def tau_monomials(u: DPMonomial, v: DPMonomial) -> GammaElement:
    """tau product of two basis monomials in the limit ring.

    Sums over margin matrices: slack in a row keeps that word as-is, slack
    in a column keeps the right word, and an interior cell gamma_{mu,nu}
    contributes (mu nu)^(gamma) with mu nu concatenated.  Cached: callers
    must treat the result as read-only.
    """
    rows = u.factors
    cols = v.factors
    rowsums = tuple(e for _, e in rows)
    colsums = tuple(e for _, e in cols)
    acc: dict[DPMonomial, int] = {}
    for g in _interior_matrices(rowsums, colsums):
        pairs: list[tuple[Word, int]] = []
        for i, (wu, a) in enumerate(rows):
            slack = a - sum(g[i])
            if slack:
                pairs.append((wu, slack))
        for j, (wv, b) in enumerate(cols):
            slack = b - sum(g[i][j] for i in range(len(rows)))
            if slack:
                pairs.append((wv, slack))
        for i, (wu, _) in enumerate(rows):
            for j, (wv, _) in enumerate(cols):
                if g[i][j]:
                    pairs.append((wu + wv, g[i][j]))
        coeff, mono = merge_factors(pairs)
        nc = acc.get(mono, 0) + coeff
        if nc:
            acc[mono] = nc
        elif mono in acc:
            del acc[mono]
    return GammaElement(acc, None)


def tau(g: GammaElement, h: GammaElement) -> GammaElement:
    """The tau ring product, bilinear over both contexts.

    In a truncated context the product is computed in the limit and then
    truncated, which is the definition of the level-n multiplication.
    """
    g._check(h)
    acc: dict[DPMonomial, int] = {}
    for mu, cu in g.terms.items():
        for mv, cv in h.terms.items():
            poly_add_scaled(acc, tau_monomials(mu, mv).terms, cu * cv)
    return GammaElement(acc, g.level)


def tau_n(g: GammaElement, h: GammaElement, n: int) -> GammaElement:
    """tau at truncation level n; operands must already live there."""
    if g.level != n or h.level != n:
        raise ContextError(f"operands are not in level {n}")
    return tau(g, h)


def sigma_n(g: GammaElement, n: int) -> GammaElement:
    """Project the limit ring onto level n (drop weights above n)."""
    if g.level is not None:
        raise ContextError("sigma_n expects a limit-ring element")
    return GammaElement({m: c for m, c in g.terms.items() if m.weight <= n}, n)


def rho_n(g: GammaElement) -> GammaElement:
    """Drop from level n to level n-1.

    Monomials of full weight n acquire an identity-slot exponent of -1,
    hence vanish; everything else is re-contextualized unchanged.
    """
    n = g.level
    if n is None or n < 1:
        raise ContextError("rho_n needs a truncated context with n >= 1")
    return GammaElement({m: c for m, c in g.terms.items() if m.weight <= n - 1},
                        n - 1)


def _compositions(total: int, nparts: int) -> Iterator[tuple[int, ...]]:
    if nparts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, nparts - 1):
            yield (first,) + rest


def dp_expand(f: FreePoly, k: int) -> GammaElement:
    """k-th divided power of an augmentation-ideal element, expanded.

    Writing f as a sum of words, the expansion distributes k over the
    support multinomially, scaling each word's slot by its coefficient
    raised to the slot's exponent.  Distinct compositions give distinct
    monomials, so no two terms collect.
    """
    if f.constant_term != 0:
        raise ValueError("dp_expand requires a zero constant term")
    if k < 0:
        raise ValueError("negative divided power")
    words = f.words()
    coeffs = [f.terms[w] for w in words]
    terms: dict[DPMonomial, int] = {}
    for xi in _compositions(k, len(words)):
        mono = DPMonomial((w, e) for w, e in zip(words, xi) if e)
        terms[mono] = math.prod(cw ** e for cw, e in zip(coeffs, xi))
    return GammaElement(terms, None)


class NormedTensor:
    """Element of (level-n divided powers, abelianized) tensor the free ring.

    Terms map (DPMonomial, Word) -> int; the left factor is a standard-basis
    representative of the abelianized truncation, the right factor a word
    (the empty word carrying the scalar slot).
    """

    __slots__ = ("terms", "level")

    def __init__(self, terms: dict[tuple[DPMonomial, Word], int] | None,
                 level: int):
        self.terms = {k: c for k, c in (terms or {}).items() if c}
        self.level = level

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, NormedTensor) and self.level == other.level
                and self.terms == other.terms)

    def sorted_terms(self) -> list[tuple[tuple[DPMonomial, Word], int]]:
        return sorted(self.terms.items(),
                      key=lambda t: (t[0][0].sort_key(), t[0][1].graded_key()))

    def __repr__(self) -> str:
        return f"NormedTensor({self.terms!r}, level={self.level})"


def chi_formal(f: FreePoly, n: int) -> NormedTensor:
    """The degree-n Cayley-Hamilton element of f.

    chi_n(f) = f^n + sum_{i=1..n} (-1)^i f^(i) (x) f^(n-i), with the i = n
    term carried on the scalar (empty-word) slot.
    """
    if f.constant_term != 0:
        raise ValueError("chi_formal requires a zero constant term")
    if f.is_zero():
        raise ValueError("chi_formal requires a nonzero argument")
    acc: dict[tuple[DPMonomial, Word], int] = {}

    def put(mono: DPMonomial, w: Word, c: int) -> None:
        key = (mono, w)
        nc = acc.get(key, 0) + c
        if nc:
            acc[key] = nc
        elif key in acc:
            del acc[key]

    for w, c in (f ** n).terms.items():
        put(DPMonomial.one(), w, c)
    for i in range(1, n + 1):
        gi = sigma_n(dp_expand(f, i), n)
        rest = f ** (n - i)
        sign = -1 if i % 2 else 1
        for mono, cg in gi.terms.items():
            for w, cw in rest.terms.items():
                put(mono, w, sign * cg * cw)
    return NormedTensor(acc, n)


def enumerate_dp_monomials(d: tuple[int, ...],
                           max_weight: int | None = None) -> list[DPMonomial]:
    """Standard-basis monomials of multidegree exactly d.

    With ``max_weight=n`` this is the level-n basis slice; without it, the
    limit-ring slice (finite anyway, since every word has length >= 1).
    """
    from .freering import enumerate_words

    nletters = len(d)
    if all(x == 0 for x in d):
        return [DPMonomial.one()]
    words = [w for w in enumerate_words(nletters, max_multidegree=d)]
    degs = [w.multidegree(nletters) for w in words]
    out: list[DPMonomial] = []

    def rec(i: int, rem: tuple[int, ...], wleft: int | None,
            picked: list[tuple[Word, int]]) -> None:
        if all(x == 0 for x in rem):
            out.append(DPMonomial(picked))
            return
        if i == len(words):
            return
        wd = degs[i]
        emax = min((r // x for r, x in zip(rem, wd) if x), default=0)
        if wleft is not None:
            emax = min(emax, wleft)
        for e in range(emax, -1, -1):
            if e:
                picked.append((words[i], e))
            rec(i + 1,
                tuple(r - e * x for r, x in zip(rem, wd)),
                None if wleft is None else wleft - e,
                picked)
            if e:
                picked.pop()

    rec(0, d, max_weight, [])
    out.sort(key=DPMonomial.sort_key)
    return out


def format_gamma(g: GammaElement, alphabet: Alphabet) -> str:
    """Canonical bracket form, e.g. ``[xx^(1)|lim] + 2*[x^(2)|lim]``."""
    if g.is_zero():
        return "0"
    ctx = "lim" if g.level is None else f"n={g.level}"
    parts = []
    for mono, c in g.sorted_terms():
        bracket = f"[{mono.to_str(alphabet)}|{ctx}]"
        frag = bracket if abs(c) == 1 else f"{abs(c)}*{bracket}"
        parts.append(("- " if c < 0 else "+ ") + frag)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def parse_gamma(text: str, alphabet: Alphabet) -> GammaElement:
    """Parse the bracket syntax; all brackets must share one context."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", pos)
        return int(text[start:pos])

    def parse_word() -> Word:
        nonlocal pos
        letters = []
        while pos < n and text[pos] in alphabet._index:
            letters.append(alphabet.index(text[pos]))
            pos += 1
        if not letters:
            raise ParseError("expected a word", pos)
        return Word(letters)

    def parse_bracket() -> tuple[DPMonomial, int | None]:
        nonlocal pos
        expect("[")
        factors = []
        while True:
            skip_ws()
            if pos < n and text[pos] == "|":
                pos += 1
                break
            w = parse_word()
            skip_ws()
            expect("^")
            expect("(")
            e = parse_int()
            expect(")")
            factors.append((w, e))
        skip_ws()
        if text[pos:pos + 3] == "lim":
            pos += 3
            level = None
        elif pos < n and text[pos] == "n":
            pos += 1
            expect("=")
            level = parse_int()
        else:
            raise ParseError("expected 'lim' or 'n=<int>'", pos)
        expect("]")
        try:
            mono = DPMonomial(factors)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        return mono, level

    def parse_item() -> tuple[int, DPMonomial, int | None]:
        nonlocal pos
        skip_ws()
        coeff = 1
        if pos < n and text[pos].isdigit():
            coeff = parse_int()
            expect("*")
        mono, level = parse_bracket()
        return coeff, mono, level

    skip_ws()
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    coeff, mono, level = parse_item()
    terms = {mono: sign * coeff}
    while True:
        skip_ws()
        if pos >= n:
            break
        if text[pos] == "+":
            s = 1
        elif text[pos] == "-":
            s = -1
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        c, m, lv = parse_item()
        if lv != level:
            raise ParseError("mixed contexts in one element", pos)
        terms[m] = terms.get(m, 0) + s * c
    if level is not None:
        for m in terms:
            if m.weight > level:
                raise ParseError(
                    f"monomial weight {m.weight} exceeds level {level}", pos)
    return GammaElement(terms, level)
