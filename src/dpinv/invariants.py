"""Generic matrices, characteristic coefficients and the invariant pairing.

Commutative polynomials live in a ring whose variables are the
matrix-entry variables x[s][i][j], ordered by (letter, row, column).  A
monomial is packed into a single int with an 8-bit field per variable, so
monomial products are plain integer additions.  The top bit of each field
is a guard: every exponent a ring holds stays below 128
(``backend.EXPONENT_BOUND``).
``PolyRing.pack`` and ``monomials_up_to`` reject larger exponents, and every
product checks its result once for a set guard bit and raises
``OverflowError``.  Two exponents below the bound sum to less than 256, so
no product can carry into the next field unnoticed.

The pairing sends prod_k w_k^(a_k) to the coefficient of
t_0^(n-|a|) prod_k t_k^(a_k) in det(t_0 I + sum_k t_k M_k), M_k the
generic-matrix image of w_k.  No t parameters are ever introduced.
Amitsur's formula (S. A. Amitsur, Linear and Multilinear Algebra 8 (1980)
177-182; a combinatorial proof is in Reutenauer-Schutzenberger, Lett. Math.
Phys. 13 (1987)) factors det(I - sum_k t_k M_k) as prod_u det(I - t^u M_u)
over the Lyndon words u in the letters k, M_u the product of the M_k along
u.  Putting t_k -> -t_k, that coefficient is

    sum over the maps f from Lyndon words u with content <= a to 0..n
        with sum_u f(u) content(u) = a,
        prod_u (-1)^(f(u)(|u|+1)) e_f(u)(w_u),

where w_u is the concatenation of the w_k along u, up to rotation.  So
every image is pi(m) = sum_key C[m, key] P_key: P_key is a product of e_i
of single necklaces, in the Z-lattice of the Lyndon products that span the
invariant slice (``MatrixInvariants.invariant_span``), and C is an integer
matrix found without touching a polynomial (``pi_coefficients``).  Its row
of m sums the signs of the maps f that give one sorted key of (necklace,
f(u)) pairs, and drops every map with some f(u) > n, since e_i = 0 for
i > n.  The maps depend only on the exponents a and on n, so they are
cached per shape.  The only polynomial determinants are the principal
minors whose sums are those e_i, the one-matrix case of the row-multilinear
coefficient ``mixed_minor_sum``.  Cofactor expansion divides nowhere, so
all of it holds over the integers.

A context may live on the diagonal slice of one letter s, where
x[s][i][j] = 0 for i != j.  Invariants of generic matrices, and
GL_n-equivariant matrix polynomials, are constant on conjugacy orbits,
and diagonalizable matrices are Zariski-dense, so such maps are fixed by
their values on the slice (Procesi, Adv. Math. 19 (1976); Formanek, CBMS
78 (1991)).  Restricting to it is Z-linear and injective on the invariant
ring: ranks, kernels and Z-membership all survive, and every polynomial
has fewer terms.  The argument needs true invariants, since a polynomial
that is not one can vanish on the slice; a seeded 2.2.2 cell checks the
sliced e_i against the minor sums of integer word matrices at one point
of the slice.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import add, mul, or_

from .backend import EXPONENT_BOUND, Terms, combine, poly_mul
from .freering import (Alphabet, FreePoly, Word, compositions,
                       cyclic_normal_form, distinct_permutations,
                       enumerate_lyndon_words, format_signed_sum,
                       multidegree, multisets)
from .gamma import ContextError, DPMonomial, GammaElement

_WIDTH = EXPONENT_BOUND.bit_length()  # the bound is each field's guard bit
_MASK = (1 << _WIDTH) - 1


def _comm_mul(a, b):
    """``poly_mul`` of commuting keys, with the shorter operand in the outer
    loop: each outer term pays for a pass over the other operand."""
    return poly_mul(a, b) if len(a) <= len(b) else poly_mul(b, a)


class PolyRing:
    """Variable context: the entry variables x[s][i][j] of every letter.

    Rings with the same letters and matrix order are equal, so polynomials
    built before and after a context is rebuilt still mix.
    """

    __slots__ = ("alphabet", "n", "names", "nvars", "guard")

    def __init__(self, alphabet: Alphabet, n: int):
        self.alphabet = alphabet
        self.n = n
        names = []
        for s in alphabet.names:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    names.append(f"x[{s}][{i}][{j}]")
        self.names = tuple(names)
        self.nvars = len(names)
        self.guard = sum(EXPONENT_BOUND << (_WIDTH * idx)
                         for idx in range(self.nvars))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, PolyRing)
                                 and self.n == other.n
                                 and self.alphabet == other.alphabet)

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.n))

    def checked(self, terms: dict[int, int]) -> dict[int, int]:
        """The terms, after checking every exponent is below the bound."""
        if reduce(or_, terms, 0) & self.guard:
            raise OverflowError(
                f"an exponent reached {EXPONENT_BOUND}, the packing's bound")
        return terms

    def x_index(self, s: int, i: int, j: int) -> int:
        """Variable index of x[letter s][i][j]; i, j are 1-based."""
        return s * self.n * self.n + (i - 1) * self.n + (j - 1)

    def pack(self, exps) -> int:
        key = 0
        for idx, e in enumerate(exps):
            if e:
                if e < 0:
                    raise ValueError("negative exponent")
                if e >= EXPONENT_BOUND:
                    raise OverflowError(
                        f"exponent {e} is not below the packing's bound "
                        f"{EXPONENT_BOUND}")
                key |= e << (_WIDTH * idx)
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.nvars):
            out.append(key & _MASK)
            key >>= _WIDTH
        return tuple(out)

    def monomials_up_to(self, max_deg: int) -> list[int]:
        """Sorted packed keys of every monomial of total degree <= max_deg."""
        if max_deg >= EXPONENT_BOUND:
            raise OverflowError(f"degree {max_deg} is not below the "
                                f"packing's bound {EXPONENT_BOUND}")
        return sorted(self.pack(exps) for total in range(max_deg + 1)
                      for exps in compositions(total, self.nvars))

    def monomial_values(self, keys, values) -> dict[int, int]:
        """Value at the integer point ``values`` of every given packed key.

        The table starts from {0: 1}; a key's value is that of the key with
        its highest set field stripped, times the field's variable raised to
        the field's exponent, so keys sharing fields share the work.
        """
        table = {0: 1}
        for key in keys:
            chain = []
            while key not in table:
                idx = (key.bit_length() - 1) // _WIDTH
                e = key >> (_WIDTH * idx)
                chain.append((key, values[idx] ** e))
                key ^= e << (_WIDTH * idx)
            v = table[key]
            for k, factor in reversed(chain):
                v *= factor
                table[k] = v
        return table

    def var(self, idx: int) -> "CommPoly":
        return CommPoly(self, {1 << (_WIDTH * idx): 1})

    def grevlex_key(self, key: int):
        exps = self.unpack(key)
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def __repr__(self) -> str:
        return f"PolyRing(letters={''.join(self.alphabet.names)}, n={self.n})"


class CommPoly(Terms):
    """Sparse commutative polynomial over the integers in a fixed ring."""

    __slots__ = ("ring",)
    _ONE = 0

    def __init__(self, ring: PolyRing, terms: dict[int, int] | None = None):
        self.ring = ring
        self.terms = ring.checked({k: c for k, c in (terms or {}).items()
                                   if c})

    @classmethod
    def zero(cls, ring: PolyRing) -> "CommPoly":
        return cls(ring)

    @classmethod
    def const(cls, ring: PolyRing, c: int) -> "CommPoly":
        return cls(ring, {0: c} if c else {})

    def _like(self, terms: dict[int, int]) -> "CommPoly":
        res = CommPoly.__new__(CommPoly)
        res.ring, res.terms = self.ring, terms
        return res

    def _context(self) -> PolyRing:
        return self.ring

    def _coerce(self, other) -> "CommPoly":
        if type(other) is CommPoly and (other.ring is self.ring
                                        or other.ring == self.ring):
            return other
        if isinstance(other, int):
            return CommPoly.const(self.ring, other)
        super()._coerce(other)
        raise ValueError("mixed polynomial rings")

    def __mul__(self, other) -> "CommPoly":
        if isinstance(other, int):
            return super().__mul__(other)
        other = self._coerce(other)
        return self._like(self.ring.checked(_comm_mul(self.terms, other.terms)))

    def total_degree(self) -> int:
        return max((sum(self.ring.unpack(k)) for k in self.terms), default=0)

    def sorted_keys(self) -> list[int]:
        return sorted(self.terms, key=self.ring.grevlex_key, reverse=True)

    def evaluate(self, values) -> int:
        """Specialize every variable to the given integers."""
        return self.value_in(self.ring.monomial_values(self.terms, values))

    def value_in(self, table: dict[int, int]) -> int:
        """Value read from a ``PolyRing.monomial_values`` table that holds
        every key of this polynomial."""
        return sum(map(mul, self.terms.values(),
                       map(table.__getitem__, self.terms)))

    def to_str(self) -> str:
        names = self.ring.names

        def body(k: int) -> str:
            return "*".join(names[idx] if e == 1 else f"{names[idx]}^{e}"
                            for idx, e in enumerate(self.ring.unpack(k)) if e)

        return format_signed_sum((self.terms[k], body(k))
                                 for k in self.sorted_keys())

    def __repr__(self) -> str:
        return f"CommPoly({self.to_str()})"


class MatrixPoly:
    """Square matrix with CommPoly entries."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, ring: PolyRing, n: int, scale: int = 1) -> "MatrixPoly":
        return cls(ring, [[CommPoly.const(ring, scale if i == j else 0)
                           for j in range(n)] for i in range(n)])

    def __add__(self, other: "MatrixPoly") -> "MatrixPoly":
        return MatrixPoly(self.ring,
                          [[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "MatrixPoly") -> "MatrixPoly":
        return MatrixPoly(self.ring,
                          [[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, other) -> "MatrixPoly":
        if isinstance(other, (int, CommPoly)):
            return MatrixPoly(self.ring,
                              [[a * other for a in row]
                               for row in self.entries])
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = combine((1, _comm_mul(self.entries[i][k].terms,
                                            other.entries[k][j].terms))
                              for k in range(n))
                p = CommPoly.__new__(CommPoly)
                p.ring, p.terms = self.ring, self.ring.checked(acc)
                row.append(p)
            rows.append(row)
        return MatrixPoly(self.ring, rows)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixPoly) and self.n == other.n
                and self.entries == other.entries)

    def trace(self) -> CommPoly:
        t = CommPoly.zero(self.ring)
        for i in range(self.n):
            t = t + self.entries[i][i]
        return t

    def evaluate(self, values) -> list[list[int]]:
        return [[a.evaluate(values) for a in row] for row in self.entries]

    def __repr__(self) -> str:
        return f"MatrixPoly({self.n}x{self.n} over {self.ring!r})"


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion (division-free)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def mixed_minor_sum(mats: list, exponents, n: int):
    """The coefficient of t_0^(n-|a|) prod_k t_k^(a_k) in det(t_0 I +
    sum_k t_k mats[k]), for n x n arrays mats[k] and exponents a.

    The determinant is linear in each row, so this is the sum, over the
    row sets T with |T| = |a| and the distinct labellings of T taking each
    k a_k times, of the minor on T whose row r comes from the matrix of
    r's label, each by ``det_cofactor``.  With one matrix and a = (i,) it
    is e_i, the sum of the principal i x i minors: 1 for i = 0 and 0 for
    i > n.  Entries may lie in any commutative ring whose elements support
    +, - and * among themselves.
    """
    labels = [k for k, e in enumerate(exponents) for _ in range(e)]
    if len(labels) > n:
        return 0
    labellings = list(distinct_permutations(labels))
    return reduce(add, (det_cofactor([[mats[k][r][c] for c in rows]
                                      for k, r in zip(labelling, rows)])
                        for rows in combinations(range(n), len(labels))
                        for labelling in labellings))


def charpoly_coeffs(b: MatrixPoly | list) -> list:
    """Characteristic coefficients [e_0=1, e_1, ..., e_n].

    det(tI - b) = sum_i (-1)^i e_i t^(n-i); e_1 is the trace and e_n the
    determinant.  Each e_i is ``mixed_minor_sum([b], (i,), n)``, so the
    cost grows like sum_i C(n, i) i!, which is fine at the orders of a
    desk-scale run (n <= 6).  Division-free, valid over the integers.
    """
    rows = b.entries if isinstance(b, MatrixPoly) else b
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return [mixed_minor_sum([rows], (i,), n) for i in range(n + 1)]


@lru_cache(maxsize=1024)
def _amitsur_choices(a: tuple[int, ...], n: int) -> tuple[tuple, tuple]:
    """The Lyndon words u in r = len(a) letters with content <= a, and
    every map f from them to 0..n with sum_u f(u) content(u) = a, as
    ``((k, f(u_k)) pairs, sign)``.  A map with some f(u) > n is dropped,
    since e_f(u) = 0 there.  Depends only on the exponents of a monomial
    and n, so it is cached per shape."""
    r = len(a)
    lyndon = enumerate_lyndon_words(r, max_multidegree=a)
    choices = []
    # the multiplicity of Lyndon word k in a multiset is f(u_k)
    for f in multisets([multidegree(u, r) for u in lyndon], a):
        if all(i <= n for _, i in f):
            odd = sum(i * (len(lyndon[k]) + 1) for k, i in f) % 2
            choices.append((f, -1 if odd else 1))
    return tuple(lyndon), tuple(choices)


class MatrixInvariants:
    """Caches for one (alphabet, n): word matrices and the e_i of
    necklaces, but no products of those e_i.

    With ``diagonal`` a letter index, the context lives on the diagonal
    slice of that letter: its generic matrix has zeros off the diagonal,
    and every polynomial built here is the image of the full-ring one
    under x[diagonal][i][j] -> 0 for i != j (see the module docstring).
    """

    def __init__(self, alphabet: Alphabet, n: int,
                 diagonal: int | None = None):
        if n < 1:
            raise ValueError("matrix order must be at least 1")
        if diagonal is not None and not 0 <= diagonal < len(alphabet):
            raise KeyError(f"letter index {diagonal} outside the alphabet")
        self.alphabet = alphabet
        self.n = n
        self.diagonal = diagonal
        self.ring = PolyRing(alphabet, n)
        self._word_mats: dict[Word, MatrixPoly] = {}
        self._e: dict[tuple[Word, int], CommPoly] = {}

    @staticmethod
    def get(alphabet: Alphabet, n: int,
            diagonal: int | None = None) -> "MatrixInvariants":
        """The shared context of (alphabet, n), on the diagonal slice of
        the letter ``diagonal`` if one is given.

        At most eight are kept, keyed by (alphabet, n, diagonal) however
        the call is written, the least recently used leaving first.  A
        rebuilt context's ring equals the old one, so polynomials of both
        still mix.
        """
        return _shared_context(alphabet, n, diagonal)

    def generic_matrix(self, s) -> MatrixPoly:
        """The generic matrix of the given letter (name or index)."""
        if isinstance(s, str):
            s = self.alphabet.index(s)
        return self.word_matrix((s,))

    def word_matrix(self, w: Word) -> MatrixPoly:
        """Image of a word under j_n (the empty word gives the identity)."""
        m = self._word_mats.get(w)
        if m is not None:
            return m
        n, ring = self.n, self.ring
        if len(w) == 0:
            m = MatrixPoly.identity(ring, n)
        elif len(w) == 1:
            self._check_letters(w)
            s = w[0]
            m = MatrixPoly(ring, [[ring.var(ring.x_index(s, i, j))
                                   if i == j or s != self.diagonal
                                   else CommPoly.zero(ring)
                                   for j in range(1, n + 1)]
                                  for i in range(1, n + 1)])
        else:
            m = self.word_matrix(w[:-1]) * self.word_matrix(w[-1:])
        self._word_mats[w] = m
        return m

    def _check_letters(self, w: Word) -> None:
        for a in w:
            if not 0 <= a < len(self.alphabet):
                raise KeyError(f"letter index {a} outside the alphabet")

    def jn_eval(self, f: FreePoly) -> MatrixPoly:
        """The ring homomorphism sending each letter to its generic matrix."""
        acc = MatrixPoly.identity(self.ring, self.n, 0)
        for w, c in f.terms.items():
            acc = acc + self.word_matrix(w) * c
        return acc

    def pi_coefficients(self, m: DPMonomial) -> dict[tuple, int]:
        """Amitsur's row of m: ``{key: c}`` with ``pi(m) = sum c *
        prod e_i(w)`` over the (w, i) of each key, a sorted tuple of
        (necklace, i) pairs with every i <= n (see the module docstring).
        Every c is a nonzero int."""
        words = [w for w, _ in m.factors]
        for w in words:
            self._check_letters(w)
        lyndon, choices = _amitsur_choices(tuple(e for _, e in m.factors),
                                           self.n)
        necks = [cyclic_normal_form(tuple(x for k in u for x in words[k]))
                 for u in lyndon]
        row: dict[tuple, int] = {}
        for f, sign in choices:
            key = tuple(sorted((necks[k], i) for k, i in f))
            row[key] = row.get(key, 0) + sign
        return {key: c for key, c in row.items() if c}

    def pi_monomial(self, m: DPMonomial) -> CommPoly:
        """Image of a standard-basis monomial under the invariant pairing:
        its ``pi_coefficients`` row times the products of e_i."""
        return CommPoly(self.ring, combine(
            (c, self.product(key).terms)
            for key, c in self.pi_coefficients(m).items()))

    def pi_n_eval(self, g: GammaElement) -> CommPoly:
        """Evaluate on a level-n element, extended linearly."""
        if g.level != self.n:
            raise ContextError(
                f"element lives at level {g.level!r}, expected {self.n}")
        return CommPoly(self.ring, combine(
            (c, self.pi_monomial(m).terms) for m, c in g.terms.items()))

    def e_poly(self, w: Word, i: int) -> CommPoly:
        """e_i, 1 <= i <= n, of the generic-matrix image of the necklace w:
        the sum of its principal i x i minors.  Cached per (w, i)."""
        res = self._e.get((w, i))
        if res is None:
            res = self._e[w, i] = mixed_minor_sum(
                [self.word_matrix(w).entries], (i,), self.n)
        return res

    def product(self, key: tuple) -> CommPoly:
        """prod e_i(w) over the (w, i) of key, from the cached ``e_poly``
        factors.  The product itself is not kept."""
        return reduce(mul, (self.e_poly(w, i) for w, i in key),
                      CommPoly.const(self.ring, 1))

    def invariant_span(self, d: tuple[int, ...]) -> dict[tuple, CommPoly]:
        """Spanning set over Z of the multidegree-d slice of the invariant
        ring, as ``{key: product(key)}``: the product of e_i over Lyndon
        words for every choice of factors, keyed by its sorted (Lyndon
        word, i) pairs.  Distinct choices can give equal products (e_1(x)
        e_1(y) == e_1(xy) at n=1), and the dict keeps each one; ranking its
        values with ``backend.eliminate`` reduces each copy to zero like
        any other dependent row.  The products belong to the caller.

        The products over every necklace span the slice over Z (Donkin,
        Invent. Math. 110 (1992)), and these span the same lattice.  A
        necklace is u^k for a Lyndon word u, and e_i(A^k) is the plethysm
        e_i o p_k written in the e-basis (``symfunc.plethysm_e_p``): an
        integer polynomial in e_1(A), ..., e_n(A), each term of weight ik,
        with e_j = 0 for j > n.  So every necklace product, and every
        product a ``pi_coefficients`` key names, is an integer combination
        of Lyndon products of its multidegree."""
        nletters = len(self.alphabet)
        if len(d) != nletters:
            raise ValueError("multidegree length must match the alphabet")
        cands = [(w, i)
                 for w in enumerate_lyndon_words(nletters, max_multidegree=d)
                 for i in range(1, self.n + 1)]
        degs = [tuple(i * x for x in multidegree(w, nletters))
                for w, i in cands]
        keys = (tuple(sorted(cands[k] for k, e in picks for _ in range(e)))
                for picks in multisets(degs, d))
        return {key: self.product(key) for key in keys}


_shared_context = lru_cache(maxsize=8)(MatrixInvariants)
