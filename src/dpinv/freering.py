"""Words, necklaces and noncommutative integer polynomials.

The session alphabet is an ordered finite set of letters; words are tuples
of letter indices.  The free ring on the alphabet is represented sparsely
as a map from words to integer coefficients, the empty word carrying the
constant term.  Everything here is an immutable value.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .backend import poly_add_scaled


class ParseError(ValueError):
    """Raised on malformed text input; carries the 0-based offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_LETTER_POOL = "xyzwabcdefghijklmnopqrstuv"


class Alphabet:
    """Ordered set of single-character letter names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("duplicate letters in alphabet")
        self.names = names
        self._index = {s: i for i, s in enumerate(names)}

    @classmethod
    def default(cls, k: int) -> "Alphabet":
        if k > len(_LETTER_POOL):
            raise ValueError(f"at most {len(_LETTER_POOL)} letters supported")
        return cls(_LETTER_POOL[:k])

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown letter {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __getitem__(self, i: int) -> str:
        return self.names[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.names)!r})"


class Word(tuple):
    """A word in the free monoid, stored as a tuple of letter indices.

    Words compare as tuples; the graded-lex order used throughout the
    package is ``(len(w), w)``.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        return super().__new__(cls, letters)

    def __add__(self, other) -> "Word":  # concatenation
        return Word(tuple.__add__(self, other))

    @property
    def length(self) -> int:
        return len(self)

    def multidegree(self, nletters: int) -> tuple[int, ...]:
        d = [0] * nletters
        for a in self:
            d[a] += 1
        return tuple(d)

    def graded_key(self) -> tuple:
        return (len(self), tuple(self))

    def to_str(self, alphabet: Alphabet) -> str:
        return "".join(alphabet[a] for a in self)

    def __repr__(self) -> str:
        return f"Word({tuple(self)})"


def word_from_str(text: str, alphabet: Alphabet) -> Word:
    return Word(alphabet.index(c) for c in text)


def cyclic_normal_form(w: Word) -> Word:
    """Lexicographically least rotation of a nonempty word (Booth)."""
    if len(w) == 0:
        raise ValueError("the empty word has no cyclic class")
    s = tuple(w) + tuple(w)
    n = len(s)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return Word(s[k:k + len(w)])


def primitive_decompose(w: Word) -> tuple[Word, int]:
    """Write w = u^k with u primitive and k maximal.

    The smallest period is read off the KMP failure function: p = n - b
    where b is the longest proper border, and w is a power of its prefix
    exactly when p divides n.
    """
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no primitive decomposition")
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    p = n - fail[n - 1]
    if n % p == 0:
        return Word(w[:p]), n // p
    return Word(w), 1


class Necklace:
    """Cyclic-equivalence class of a nonempty word."""

    __slots__ = ("rep",)

    def __init__(self, word: Word):
        self.rep = cyclic_normal_form(word)

    def __eq__(self, other) -> bool:
        return isinstance(other, Necklace) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((Necklace, tuple(self.rep)))

    def __repr__(self) -> str:
        return f"Necklace({tuple(self.rep)})"


def _bounded(d: tuple[int, ...], bound: tuple[int, ...] | None) -> bool:
    return bound is None or all(a <= b for a, b in zip(d, bound))


def enumerate_words(
    nletters: int,
    max_total: int | None = None,
    max_multidegree: tuple[int, ...] | None = None,
) -> list[Word]:
    """All nonempty words within the bound, in graded lex order."""
    if max_total is None:
        if max_multidegree is None:
            raise ValueError("a degree bound is required")
        max_total = sum(max_multidegree)
    out = []
    for length in range(1, max_total + 1):
        for letters in itertools.product(range(nletters), repeat=length):
            w = Word(letters)
            if _bounded(w.multidegree(nletters), max_multidegree):
                out.append(w)
    return out


def enumerate_necklaces(
    nletters: int,
    max_total: int | None = None,
    max_multidegree: tuple[int, ...] | None = None,
) -> list[Necklace]:
    """One representative per cyclic class within the bound, graded lex."""
    out = []
    for w in enumerate_words(nletters, max_total, max_multidegree):
        if cyclic_normal_form(w) == w:
            out.append(Necklace(w))
    return out


def words_of_multidegree(d: tuple[int, ...]) -> list[Word]:
    """All words of multidegree exactly d, in lex order."""
    total = sum(d)
    out = []
    for letters in itertools.product(range(len(d)), repeat=total):
        w = Word(letters)
        if w.multidegree(len(d)) == d:
            out.append(w)
    return out


class FreePoly:
    """Sparse noncommutative polynomial with integer coefficients.

    ``terms`` maps Word -> nonzero int; the empty word holds the constant
    term, so elements of the augmentation ideal are exactly those without
    an empty-word key.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        clean: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[Word(w)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "FreePoly":
        return cls()

    @classmethod
    def one(cls) -> "FreePoly":
        return cls({Word(): 1})

    @classmethod
    def letter(cls, i: int) -> "FreePoly":
        return cls({Word((i,)): 1})

    @classmethod
    def from_word(cls, w: Word, c: int = 1) -> "FreePoly":
        return cls({w: c})

    @property
    def constant_term(self) -> int:
        return self.terms.get(Word(), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def in_augmentation_ideal(self) -> bool:
        return self.constant_term == 0

    def words(self) -> list[Word]:
        return sorted(self.terms, key=Word.graded_key)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreePoly) and self.terms == other.terms

    def __add__(self, other: "FreePoly") -> "FreePoly":
        res = FreePoly.__new__(FreePoly)
        res.terms = poly_add_scaled(dict(self.terms), other.terms, 1)
        return res

    def __neg__(self) -> "FreePoly":
        res = FreePoly.__new__(FreePoly)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self + (-other)

    def __mul__(self, other) -> "FreePoly":
        if isinstance(other, int):
            res = FreePoly.__new__(FreePoly)
            res.terms = {w: c * other for w, c in self.terms.items()} if other else {}
            return res
        out: dict[Word, int] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                nc = out.get(w, 0) + ca * cb
                if nc:
                    out[w] = nc
                elif w in out:
                    del out[w]
        res = FreePoly.__new__(FreePoly)
        res.terms = out
        return res

    def __rmul__(self, other: int) -> "FreePoly":
        return self * other

    def __pow__(self, k: int) -> "FreePoly":
        if k < 0:
            raise ValueError("negative power of a FreePoly")
        result = FreePoly.one()
        for _ in range(k):
            result = result * self
        return result

    def to_str(self, alphabet: Alphabet) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in self.words():
            c = self.terms[w]
            body = "*".join(alphabet[a] for a in w)
            if not body:
                frag = str(abs(c))
            elif abs(c) == 1:
                frag = body
            else:
                frag = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + frag)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"FreePoly({self.terms!r})"


def parse_freepoly(text: str, alphabet: Alphabet) -> FreePoly:
    """Parse syntax like ``2*x*y^2 - y*x + 1``; whitespace-insensitive."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", pos)
        return int(text[start:pos])

    def parse_factor() -> FreePoly:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch.isdigit():
            return FreePoly({Word(): parse_int()})
        if ch in alphabet._index:
            pos += 1
            exp = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                exp = parse_int()
            return FreePoly({Word((alphabet.index(ch),) * exp): 1})
        raise ParseError(f"unexpected character {ch!r}", pos)

    def parse_term() -> FreePoly:
        nonlocal pos
        f = parse_factor()
        while True:
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                f = f * parse_factor()
            else:
                return f

    skip_ws()
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    result = parse_term() * sign
    while True:
        skip_ws()
        if pos >= n:
            return result
        if text[pos] == "+":
            pos += 1
            result = result + parse_term()
        elif text[pos] == "-":
            pos += 1
            result = result - parse_term()
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
