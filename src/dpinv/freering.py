"""Words, necklaces and noncommutative integer polynomials.

The session alphabet is an ordered finite set of letters; a word is a plain
tuple of letter indices, ordered graded-lex by ``graded_key``.  Necklaces
and Lyndon words come straight from their definitions by rotation: a
necklace is the least rotation of its word, a Lyndon word is < each of its
proper rotations.  These words are only as long as a cell's degree, so
comparing every rotation is cheap.  The free ring on the alphabet is
represented sparsely as a map from words to integer coefficients, the
empty word carrying the constant term.  Everything here is an immutable
value.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator

from .backend import EXPONENT_BOUND, Terms, poly_mul


class ParseError(ValueError):
    """Raised on malformed text input; carries the text and the offset."""

    def __init__(self, message: str, pos: int, text: str):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
        self.text = text


_LETTER_POOL = "xyzwabcdefghijklmnopqrstuv"
_SPACE = re.compile(r"\s*")  # what str.isspace accepts


class Alphabet:
    """Ordered set of single-character letter names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must be nonempty")
        for s in names:
            if not (isinstance(s, str) and len(s) == 1 and s.isalpha()):
                raise ValueError(
                    f"letters must be single alphabetic characters, not {s!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate letters in alphabet")
        self.names = names
        self._index = {s: i for i, s in enumerate(names)}

    @classmethod
    def default(cls, k: int) -> "Alphabet":
        """The first k letters of the pool, for 1 <= k <= its size."""
        if k < 1:
            raise ValueError(f"need at least one letter, not {k}")
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


Word = tuple  # a word is a plain tuple of letter indices


def multidegree(w: Word, nletters: int) -> tuple[int, ...]:
    """How often each of the nletters letters occurs in w."""
    d = [0] * nletters
    for a in w:
        d[a] += 1
    return tuple(d)


def graded_key(w: Word) -> tuple:
    """The graded-lex order of words, used throughout the package: shorter
    words first, words of one length as tuples."""
    return (len(w), w)


def word_from_str(text: str, alphabet: Alphabet) -> Word:
    return tuple(alphabet.index(c) for c in text)


def cyclic_normal_form(w: Word) -> Word:
    """Lexicographically least rotation of a nonempty word."""
    if len(w) == 0:
        raise ValueError("the empty word has no cyclic class")
    return min(w[i:] + w[:i] for i in range(len(w)))


def enumerate_words(nletters: int,
                    max_multidegree: tuple[int, ...]) -> list[Word]:
    """All nonempty words within the bound, in graded lex order.

    ``max_multidegree`` bounds each letter's count, so it has one entry per
    letter.
    """
    if len(max_multidegree) != nletters:
        raise ValueError(f"max_multidegree {tuple(max_multidegree)} needs "
                         f"one entry per letter, {nletters} in all")
    # words of a lex-ordered layer, extended in letter order, stay in order
    out = []
    layer = [((), tuple(max_multidegree))]
    for _ in range(sum(max_multidegree)):
        layer = [(w + (a,), rem[:a] + (rem[a] - 1,) + rem[a + 1:])
                 for w, rem in layer for a in range(nletters) if rem[a] > 0]
        out.extend(w for w, _ in layer)
    return out


def enumerate_lyndon_words(nletters: int,
                           max_multidegree: tuple[int, ...]) -> list[Word]:
    """The words within the bound that are < each of their proper
    rotations: the Lyndon words, the necklaces of primitive words, in
    graded lex order."""
    return [w for w in enumerate_words(nletters, max_multidegree)
            if all(w < w[i:] + w[:i] for i in range(1, len(w)))]


def distinct_permutations(seq) -> Iterator[tuple]:
    """Each distinct ordering of seq once, in lex order.

    Steps from the sorted input by next-permutation, so a multiset with
    few distinct orderings costs that many steps, not len(seq)!.
    """
    p = sorted(seq)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = reversed(p[i + 1:])


def compositions(total: int, nparts: int) -> Iterator[tuple[int, ...]]:
    """Every nparts-tuple of non-negative ints summing to total, lex order."""
    if nparts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, nparts - 1):
            yield (first,) + rest


def multisets(degs: list[tuple[int, ...]], d: tuple[int, ...],
              max_count: int | None = None
              ) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every multiset of items whose degrees sum to d.

    Item k has the nonzero degree vector ``degs[k]``.  A choice is the
    tuple of ``(k, e_k)`` with ``e_k >= 1`` on increasing k and
    ``sum e_k * degs[k] == d``; with ``max_count`` also
    ``sum e_k <= max_count``.  Choices come out earlier items first and
    larger exponents first, and only items that still fit the remainder
    are recursed on: an item whose total degree exceeds the remainder's is
    skipped, and the loop stops once no later item's total is small enough.
    """
    if not all(any(x) for x in degs):
        raise ValueError("every item needs a nonzero degree")
    totals = [sum(x) for x in degs]
    least_after = list(itertools.accumulate(reversed(totals), min))[::-1]
    picked: list[tuple[int, int]] = []

    def rec(start: int, rem: tuple[int, ...], left: int | None):
        rem_total = sum(rem)
        if not rem_total:
            yield tuple(picked)
            return
        for k in range(start, len(degs)):
            if least_after[k] > rem_total:
                break
            if totals[k] > rem_total:
                continue
            dk = degs[k]
            emax = min(r // x for r, x in zip(rem, dk) if x)
            if left is not None:
                emax = min(emax, left)
            for e in range(emax, 0, -1):
                picked.append((k, e))
                yield from rec(k + 1, tuple(r - e * x for r, x in zip(rem, dk)),
                               None if left is None else left - e)
                picked.pop()

    yield from rec(0, tuple(d), max_count)


class FreePoly(Terms):
    """Sparse noncommutative polynomial with integer coefficients.

    ``terms`` maps words, plain tuples of letter indices, to nonzero ints;
    the empty word ``()`` holds the constant term, so elements of the
    augmentation ideal are exactly those without an empty-word key.
    """

    __slots__ = ()
    _ONE = ()

    def __init__(self, terms: dict[Word, int] | None = None):
        clean: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    def _like(self, terms: dict[Word, int]) -> "FreePoly":
        res = FreePoly.__new__(FreePoly)
        res.terms = terms
        return res

    @classmethod
    def zero(cls) -> "FreePoly":
        return cls()

    @classmethod
    def one(cls) -> "FreePoly":
        return cls({(): 1})

    @classmethod
    def letter(cls, i: int) -> "FreePoly":
        return cls({(i,): 1})

    @classmethod
    def from_word(cls, w: Word, c: int = 1) -> "FreePoly":
        return cls({w: c})

    @property
    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def words(self) -> list[Word]:
        return sorted(self.terms, key=graded_key)

    def __mul__(self, other) -> "FreePoly":
        if not isinstance(other, FreePoly):
            return super().__mul__(other)
        return self._like(poly_mul(self.terms, other.terms))

    def to_str(self, alphabet: Alphabet) -> str:
        return format_signed_sum(
            (self.terms[w], "*".join(alphabet[a] for a in w))
            for w in self.words())

    def __repr__(self) -> str:
        return f"FreePoly({self.terms!r})"


def format_signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Print (coefficient, body) pairs in the given order as ``2*a - b + 3``.

    A coefficient of absolute value 1 is left out, an empty body is the
    constant term, and the empty sum prints as ``0``.
    """
    parts = []
    for c, body in terms:
        if not body:
            frag = str(abs(c))
        elif abs(c) == 1:
            frag = body
        else:
            frag = f"{abs(c)}*{body}"
        parts.append(("- " if c < 0 else "+ ") + frag)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


class Scanner:
    """Reads one text left to right, skipping whitespace before each token.

    ``pos`` is the offset of the next unread character.  Every error is a
    ``ParseError`` at an offset into the text as given, and integers are
    runs of the ASCII digits ``0-9``; a run too long for ``int`` to read
    is an error at its first digit.
    """

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos, self.text)

    def peek(self) -> str:
        """The next character after whitespace, or '' at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, *tokens: str) -> str:
        """Read the first of tokens that comes next and return it, or ''."""
        self.peek()
        for token in tokens:
            if self.text.startswith(token, self.pos):
                self.pos += len(token)
                return token
        return ""

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def run(self, chars) -> str:
        """Read the longest run of characters in chars that comes next."""
        self.peek()
        start = end = self.pos
        while end < len(self.text) and self.text[end] in chars:
            end += 1
        self.pos = end
        return self.text[start:end]

    def integer(self, required: bool = True) -> int | None:
        """Read an unsigned integer; None if none comes next and it is not
        required."""
        digits = self.run("0123456789")
        if not digits and required:
            raise self.error("expected an integer")
        try:
            return int(digits) if digits else None
        except ValueError:  # past the interpreter's int-string limit
            raise ParseError(f"integer of {len(digits)} digits is too long",
                             self.pos - len(digits), self.text) from None

    def end(self) -> None:
        """Fail unless only whitespace is left."""
        if self.peek():
            raise self.error(f"unexpected character {self.peek()!r}")

    def signed_terms(self) -> Iterator[int]:
        """Yield the sign of each term of ``[+|-] t {(+|-) t}`` running to
        the end of the text; the caller reads each term after its sign."""
        first = True
        while first or self.peek():
            sign = self.take("+", "-")
            if not (sign or first):
                self.end()
            first = False
            yield -1 if sign == "-" else 1


def parse_freepoly(text: str, alphabet: Alphabet) -> FreePoly:
    """Parse syntax like ``2*x*y^2 - y*x + 1``; whitespace-insensitive."""
    sc = Scanner(text)
    result = FreePoly()
    for sign in sc.signed_terms():
        term = _factor(sc, alphabet)
        while sc.take("*"):
            term = term * _factor(sc, alphabet)
        result = result + term * sign
    return result


def _factor(sc: Scanner, alphabet: Alphabet) -> FreePoly:
    """A letter with an optional ``^exponent`` below ``EXPONENT_BOUND``, or
    an integer constant."""
    ch = sc.take(*alphabet.names)
    if ch:
        exp = 1
        if sc.take("^"):
            sc.peek()
            at = sc.pos
            exp = sc.integer()
            if exp >= EXPONENT_BOUND:
                raise ParseError(f"exponent {exp} is not below the packing's "
                                 f"bound {EXPONENT_BOUND}", at, sc.text)
        return FreePoly.from_word((alphabet.index(ch),) * exp)
    c = sc.integer(required=False)
    if c is None:
        sc.end()
        raise sc.error("unexpected end of input")
    return FreePoly({(): c})
