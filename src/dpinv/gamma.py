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

``tau_monomials`` enumerates those matrices over a slot table built once
per product: the row words, the column words and their concatenations,
deduplicated and sorted by ``graded_key``, which is the factor order of a
``DPMonomial``, with one exponent per slot.  The interior cells are filled
in place in row-major order against running column remainders; a row's
slack goes to its word's slot when the row is complete, and the column
slacks when the matrix is.  Putting e into a slot that already holds t
multiplies the coefficient by C(t+e, e), the divided-power merge, so each
matrix reads its monomial straight off the nonzero slots, already in
order.  Such a monomial is built by ``DPMonomial._trusted``, which skips
the validation and sorting of the public constructor.

Monomials are interned (hash-consed): ``DPMonomial._trusted`` looks its
factor tuple up in one module-level table and builds an object only on a
miss, and the public constructor validates, sorts and then goes through
it.  At most one monomial per factor tuple is alive, so equality is
identity, and every dict and cache keyed by monomials hashes and compares
them in C.  The table holds its monomials weakly: an entry goes with the
last reference to its monomial, so the table is no larger than what the
bounded caches and the live elements keep.  Pickling and copying go
through the public constructor and so re-intern.
"""

from __future__ import annotations

import functools
import math
import weakref
from math import comb
from operator import index, itemgetter
from typing import Iterable

from .backend import Terms, poly_add_scaled
from .freering import (Alphabet, FreePoly, Scanner, Word, compositions,
                       enumerate_words, format_signed_sum, graded_key,
                       multidegree, multisets, word_from_str)


class ContextError(ValueError):
    """Operands live in different ambient contexts (levels)."""


# factor tuple -> its one live DPMonomial; an entry goes with its monomial
_INTERNED: "weakref.WeakValueDictionary[tuple, DPMonomial]" = \
    weakref.WeakValueDictionary()


class DPMonomial:
    """Product of divided powers of distinct nonempty words.

    ``factors`` holds (word, exponent) pairs in graded-lex word order;
    ``weight`` is |alpha|, the sum of the exponents.  Monomials are
    interned (see the module docstring): equal monomials are one object,
    and equality and hashing are by identity.
    """

    __slots__ = ("factors", "weight", "__weakref__")

    def __new__(cls, factors: Iterable[tuple[Word, int]] = ()):
        fs = []
        seen = set()
        for w, e in factors:
            w = tuple(map(index, w))
            e = index(e)
            if len(w) == 0:
                raise ValueError("divided powers of the empty word are not stored")
            if e <= 0:
                raise ValueError("exponents must be positive")
            if w in seen:
                raise ValueError("duplicate word in factor list")
            seen.add(w)
            fs.append((w, e))
        fs.sort(key=lambda p: graded_key(p[0]))
        return cls._trusted(tuple(fs))

    @classmethod
    def _trusted(cls, factors: tuple[tuple[Word, int], ...]) -> "DPMonomial":
        """The interned monomial of factors already valid and in order;
        nothing is checked."""
        m = _INTERNED.get(factors)
        if m is None:
            m = object.__new__(cls)
            m.factors = factors
            m.weight = sum(map(itemgetter(1), factors))
            _INTERNED[factors] = m
        return m

    def __reduce__(self):
        # unpickling and copying go through the constructor, which interns;
        # the default would refill the slots of a live monomial
        return DPMonomial, (self.factors,)

    @classmethod
    def one(cls) -> "DPMonomial":
        return cls()

    @classmethod
    def single(cls, w: Word, e: int = 1) -> "DPMonomial":
        return cls(((w, e),))

    def multidegree(self, nletters: int) -> tuple[int, ...]:
        d = [0] * nletters
        for w, e in self.factors:
            for a in w:
                d[a] += e
        return tuple(d)

    def sort_key(self) -> tuple:
        # graded_key(w) + (e,) inline: a call per factor slows sorts ~40%
        return tuple((len(w), w, e) for w, e in self.factors)

    def to_str(self, alphabet: Alphabet) -> str:
        return " ".join("".join(alphabet[a] for a in w) + f"^({e})"
                        for w, e in self.factors)

    def __repr__(self) -> str:
        return f"DPMonomial({self.factors!r})"


class GammaElement(Terms):
    """Integer combination of standard-basis monomials in a fixed context:
    ``level=None`` for the limit ring, ``level=n`` for the degree-n
    truncation."""

    __slots__ = ("level",)

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
    def _trusted(cls, terms, level):
        """An element of the given context from terms already clean there;
        nothing is checked."""
        res = object.__new__(cls)
        res.terms = terms
        res.level = level
        return res

    def _like(self, terms):
        return self._trusted(terms, self.level)

    def _context(self) -> int | None:
        return self.level

    def _coerce(self, other):
        if type(other) is type(self) and other.level == self.level:
            return other
        super()._coerce(other)
        raise ContextError(
            f"context mismatch: {self.level!r} vs {other.level!r}")

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

    def sorted_terms(self) -> list[tuple[DPMonomial, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def multidegrees(self, nletters: int) -> set[tuple[int, ...]]:
        return {m.multidegree(nletters) for m in self.terms}

    def to_str(self, alphabet: Alphabet) -> str:
        return format_gamma(self, alphabet)

    def __repr__(self) -> str:
        return f"GammaElement({self.terms!r}, level={self.level!r})"


@functools.lru_cache(maxsize=1 << 16)
def tau_monomials(u: DPMonomial, v: DPMonomial) -> GammaElement:
    """tau product of two basis monomials in the limit ring.

    Sums over margin matrices: slack in a row keeps that word as-is, slack
    in a column keeps the right word, and an interior cell gamma_{mu,nu}
    contributes (mu nu)^(gamma) with mu nu concatenated.  The cells are
    filled in place over the slot table (see the module docstring), in
    lexicographic row-major order.  Cached: callers must treat the result
    as read-only.
    """
    rows, cols = u.factors, v.factors
    r, c = len(rows), len(cols)
    if not r or not c:
        # one side is the identity
        return GammaElement._trusted({v if c else u: 1}, None)
    cats = [[wu + wv for wv, _ in cols] for wu, _ in rows]
    distinct = sorted({w for w, _ in rows} | {w for w, _ in cols}
                      | {w for row in cats for w in row},
                      key=graded_key)
    slot = {w: k for k, w in enumerate(distinct)}
    row_slot = [slot[w] for w, _ in rows]
    col_slot = [slot[w] for w, _ in cols]
    cell_slot = [[slot[w] for w in row] for row in cats]
    rowsums = [e for _, e in rows]
    colrem = [e for _, e in cols]
    exps = [0] * len(distinct)
    acc: dict[tuple, int] = {}

    last_row, last_col = r - 1, c - 1

    def leaf(coeff: int) -> None:
        # the column slacks complete the matrix
        x = exps[:]
        for s, e in zip(col_slot, colrem):
            if e:
                t = x[s]
                if t:
                    coeff *= comb(t + e, e)
                x[s] = t + e
        key = tuple(x)
        acc[key] = acc.get(key, 0) + coeff

    def fill(i: int, j: int, left: int, coeff: int) -> None:
        # cell (i, j); left is what row i may still place
        s = cell_slot[i][j]
        t = exps[s]
        top = min(left, colrem[j])
        for e in range(top + 1):
            if e:
                exps[s] = t + e
                colrem[j] -= 1
                ce = coeff * comb(t + e, e) if t else coeff
            else:
                ce = coeff
            if j < last_col:
                fill(i, j + 1, left - e, ce)
                continue
            # row i is complete: its slack keeps the row's word
            slack = left - e
            rs = row_slot[i]
            held = exps[rs]
            if slack:
                exps[rs] = held + slack
                if held:
                    ce *= comb(held + slack, slack)
            if i < last_row:
                fill(i + 1, 0, rowsums[i + 1], ce)
            else:
                leaf(ce)
            exps[rs] = held
        exps[s] = t
        colrem[j] += top

    fill(0, 0, rowsums[0], 1)
    terms = {}
    for x, k in acc.items():
        factors = tuple(filter(itemgetter(1), zip(distinct, x)))
        terms[DPMonomial._trusted(factors)] = k
    return GammaElement._trusted(terms, None)


def tau(g: GammaElement, h: GammaElement) -> GammaElement:
    """The tau ring product, bilinear over both contexts.

    In a truncated context the product is computed in the limit and then
    truncated, which is the definition of the level-n multiplication.
    """
    g._coerce(h)
    # a hand loop: backend.combine's generator slows a one-term product ~45%
    acc: dict[DPMonomial, int] | None = None
    for mu, cu in g.terms.items():
        for mv, cv in h.terms.items():
            terms = tau_monomials(mu, mv).terms
            s = cu * cv
            if acc is None:
                # a product's coefficients are positive: nothing cancels
                acc = dict(terms) if s == 1 else {m: s * k
                                                  for m, k in terms.items()}
            else:
                poly_add_scaled(acc, terms, s)
    n = g.level
    if n is not None and acc:
        acc = {m: k for m, k in acc.items() if m.weight <= n}
    return g._like(acc or {})


def sigma_n(g: GammaElement, n: int) -> GammaElement:
    """Project the limit ring onto level n (drop weights above n)."""
    if g.level is not None:
        raise ContextError("sigma_n expects a limit-ring element")
    return GammaElement._trusted(
        {m: c for m, c in g.terms.items() if m.weight <= n}, n)


def rho_n(g: GammaElement) -> GammaElement:
    """Drop from level n to level n-1.

    Monomials of full weight n acquire an identity-slot exponent of -1,
    hence vanish; everything else is re-contextualized unchanged.
    """
    n = g.level
    if n is None or n < 1:
        raise ContextError("rho_n needs a truncated context with n >= 1")
    return GammaElement._trusted(
        {m: c for m, c in g.terms.items() if m.weight < n}, n - 1)


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
    for xi in compositions(k, len(words)):
        mono = DPMonomial((w, e) for w, e in zip(words, xi) if e)
        terms[mono] = math.prod(cw ** e for cw, e in zip(coeffs, xi))
    return GammaElement(terms, None)


def chi_formal(f: FreePoly, n: int) -> dict[DPMonomial, FreePoly]:
    """The degree-n Cayley-Hamilton element of f, grouped by its
    divided-power factor.

    chi_n(f) = f^n + sum_{i=1..n} (-1)^i f^(i) (x) f^(n-i) lies in (level-n
    divided powers) (x) (the free ring).  The result maps each level-n
    basis monomial to its word polynomial: the identity monomial to f^n,
    and each monomial of f^(i), of weight i, to its coefficient times
    (-1)^i f^(n-i), a constant when i = n.
    """
    if f.constant_term != 0:
        raise ValueError("chi_formal requires a zero constant term")
    if f.is_zero():
        raise ValueError("chi_formal requires a nonzero argument")
    out = {DPMonomial.one(): f ** n}
    for i in range(1, n + 1):
        rest = f ** (n - i) * (-1) ** i
        for mono, c in dp_expand(f, i).terms.items():
            out[mono] = rest * c
    return out


def enumerate_dp_monomials(d: tuple[int, ...],
                           max_weight: int | None = None) -> list[DPMonomial]:
    """Standard-basis monomials of multidegree exactly d.

    With ``max_weight=n`` this is the level-n basis slice; without it, the
    limit-ring slice (finite anyway, since every word has length >= 1).
    Slices are memoized; every call returns a fresh list.
    """
    return list(_dp_monomial_slice(tuple(d), max_weight))


@functools.lru_cache(maxsize=1024)
def _dp_monomial_slice(d: tuple[int, ...],
                       max_weight: int | None) -> tuple[DPMonomial, ...]:
    nletters = len(d)
    # graded-lex words and picks on increasing k: factors already in order
    words = enumerate_words(nletters, max_multidegree=d)
    degs = [multidegree(w, nletters) for w in words]
    out = [DPMonomial._trusted(tuple((words[k], e) for k, e in picks))
           for picks in multisets(degs, d, max_weight)]
    out.sort(key=DPMonomial.sort_key)
    return tuple(out)


def format_gamma(g: GammaElement, alphabet: Alphabet) -> str:
    """Canonical bracket form, e.g. ``[xx^(1)|lim] + 2*[x^(2)|lim]``."""
    ctx = "lim" if g.level is None else f"n={g.level}"
    return format_signed_sum((c, f"[{mono.to_str(alphabet)}|{ctx}]")
                             for mono, c in g.sorted_terms())


def parse_gamma(text: str, alphabet: Alphabet) -> GammaElement:
    """Parse the bracket syntax; all brackets must share one context."""
    sc = Scanner(text)
    terms: dict[DPMonomial, int] = {}
    level = None
    for sign in sc.signed_terms():
        coeff = sc.integer(required=False)
        if coeff is not None:
            sc.expect("*")
            sign *= coeff
        mono, lv = _bracket(sc, alphabet)
        if terms and lv != level:
            raise sc.error("mixed contexts in one element")
        level = lv
        terms[mono] = terms.get(mono, 0) + sign
    if level is not None:
        for m in terms:
            if m.weight > level:
                raise sc.error(
                    f"monomial weight {m.weight} exceeds level {level}")
    return GammaElement(terms, level)


def _bracket(sc: Scanner, alphabet: Alphabet
             ) -> tuple[DPMonomial, int | None]:
    """``[w^(e) ... | lim]`` or ``[w^(e) ... | n=<level>]``."""
    sc.expect("[")
    factors = []
    while not sc.take("|"):
        letters = sc.run(alphabet.names)
        if not letters:
            raise sc.error("expected a word")
        sc.expect("^")
        sc.expect("(")
        factors.append((word_from_str(letters, alphabet), sc.integer()))
        sc.expect(")")
    if sc.take("lim"):
        level = None
    elif sc.take("n"):
        sc.expect("=")
        level = sc.integer()
    else:
        raise sc.error("expected 'lim' or 'n=<int>'")
    sc.expect("]")
    try:
        return DPMonomial(factors), level
    except ValueError as exc:
        raise sc.error(str(exc)) from None
