"""Kernels for the hot inner loops: sparse term merging and sparse integer
row elimination.

Sparse polynomials are dicts mapping a packed monomial key (a non-negative
int whose fixed-width bit fields hold the exponents) to a nonzero int
coefficient.  Packed keys add when monomials multiply.  ``poly_mul`` does
not look at the fields: ``invariants.PolyRing.checked`` guards every
product once, raising ``OverflowError`` when an exponent reaches
``EXPONENT_BOUND`` (128), the top bit of its 8-bit field.  Exponents below
that bound sum to less than 256, so no product carries into the next field
unnoticed.  ``freering`` rejects letter powers from the same bound on: the
generic-matrix image of ``x^k`` holds ``x[x][1][1]^k``.  ``poly_mul``
is the one product loop for every sparse element whose keys multiply by
``+``: ``CommPoly`` and the ``MatrixPoly`` entries, whose packed keys
add, and ``FreePoly``, whose words concatenate.  It keeps the order of
its operands, so a noncommutative product stays correct; the commutative
products of ``invariants`` put the shorter operand first themselves.

``combine`` is the one linear combination of sparse dicts: a fresh sum
of c * v over (int, dict) pairs, which never returns or changes an input.
``poly_add_scaled`` is its in-place step, kept for loops that update one
working row.

``Terms`` is the element arithmetic over such dicts that every
combination-of-basis-keys type shares: sums, differences, negation,
integer scaling, powers, equality and dense coefficient rows.

``eliminate`` is the one elimination loop over ``{col: int}`` rows, and
every step it takes keeps the row lattice: rank counts its pivots, the
Smith form reads them off when it also runs column operations, and span
membership has it track each row's combination of the inputs.

This is the only implementation of each kernel.  The module keeps its name
and ``backend_name()`` because the benchmark harness traces
``dpinv.backend.poly_mul`` and ``dpinv.backend.bareiss_rank`` and records
the backend name with every sample.
"""

import heapq
from collections import defaultdict
from collections.abc import Mapping
from itertools import compress, count, repeat
from operator import contains, index


EXPONENT_BOUND = 128


def backend_name() -> str:
    return "python"


def poly_mul(a, b):
    """Multiply two sparse polynomial dicts whose keys multiply by ``+``,
    keeping the order of the operands: each key of the product is
    ``ka + kb`` with ``ka`` from ``a``."""
    if not a or not b:
        return {}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            c = out.get(k, 0) + va * vb
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def poly_add_scaled(acc, b, s):
    """In-place acc += s*b on sparse dicts with any hashable key; returns acc.

    Keys whose coefficient cancels to zero are removed.
    """
    if s:
        for k, v in b.items():
            c = acc.get(k, 0) + s * v
            if c:
                acc[k] = c
            elif k in acc:
                del acc[k]
    return acc


def combine(pairs):
    """The sparse sum of c * v over the (int c, sparse dict v) pairs, as a
    fresh dict.  Pairs with c == 0 are skipped; the first other one is
    copied (scaled unless c == 1), and the rest are added into that copy,
    so no input is ever returned or changed."""
    pairs = iter(pairs)
    for c, v in pairs:
        if c:
            acc = dict(v) if c == 1 else {k: c * x for k, x in v.items()}
            break
    else:
        return {}
    for c, v in pairs:
        poly_add_scaled(acc, v, c)
    return acc


class Terms:
    """An integer combination of basis keys in a fixed context.

    ``terms`` maps each key to a nonzero int and is never mutated once the
    element is built.  A subclass supplies ``_like(terms)``, a sibling in
    the same context built from already clean terms; ``_context()``, what
    two operands must share; ``_coerce(other)``, which returns ``other`` as
    a sibling or raises; and ``_ONE``, the key of the identity, when
    ``__mul__`` also multiplies two elements.  Elements are unhashable.
    """

    __slots__ = ("terms",)
    _ONE = None

    def _like(self, terms):
        raise NotImplementedError

    def _context(self):
        return None

    def _coerce(self, other):
        """``other`` as an operand beside self; a foreign type is a
        TypeError, and a subclass adds its context check."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        return other

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.terms == other.terms
                and self._context() == other._context())

    def __add__(self, other):
        other = self._coerce(other)
        return self._like(poly_add_scaled(dict(self.terms), other.terms, 1))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._like(poly_add_scaled(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self._like({k: c * other for k, c in self.terms.items()}
                          if other else {})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if self._ONE is None:
            return NotImplemented
        if k < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = self._like({self._ONE: 1})
        for _ in range(k):
            result = result * self
        return result

    def coeff_vector(self, columns) -> list:
        """Dense coefficient row over a fixed key-to-column map."""
        row = [0] * len(columns)
        for k, c in self.terms.items():
            row[columns[k]] = c
        return row


def sparse_row(row) -> dict:
    """A fresh ``{col: int}`` dict of the nonzero entries of row, a mapping
    or a dense sequence (read as a mapping on its positions).  An entry
    that is not an int raises TypeError."""
    if isinstance(row, Mapping):
        return {k: v for k, v in zip(row.keys(), map(index, row.values()))
                if v}
    values = list(map(index, row))
    return dict(zip(compress(count(), values), filter(None, values)))


def eliminate(rows, track=False, smith=False):
    """Sparse unimodular integer row elimination: the one loop behind rank,
    the Smith form and span membership.

    ``rows`` is an iterable of ``{col: int}`` dicts, which the loop takes
    over and changes in place.  Returns the pivots in the order taken, as
    ``(col, row, combo)``.  Each pivot row is nonzero at its col and zero at
    the col of every earlier pivot, and their number is the rank; without
    ``smith``, the pivot rows are a Z-basis of the row lattice.  With
    ``track``, ``combo`` is ``{input index: int}`` and ``row ==
    sum(combo[i] * rows[i])``; otherwise it is None.

    While some live row holds a +-1, the loop picks the shortest such row,
    in its unit column with the fewest live rows.  Otherwise it picks an
    entry of least absolute value.  Every other live row r nonzero at the
    pivot column c becomes ``r -= (r[c] // p) * top``.  If some row keeps a
    (now smaller) entry at c, the pivot row stays live and the loop picks
    again; else the pivot row leaves the live rows as a pivot.  Rows are
    reduced where they sit, and a row is dropped once it is zero: an exact
    copy of a live row is no special case, it reduces to zero like any
    other dependent row.

    With ``smith`` (a ValueError with ``track``), ``abs(row[col])`` over
    the pivots is the Smith form.  A non-unit pivot row that no other live
    row meets at c is reduced modulo p off c, by column operations that
    change no other live row.  It is taken only if that leaves no entry and p
    divides every live entry; else the first row that breaks this is added
    to it, it is reduced again, and it stays live.  A taken pivot is
    cleared off c by column operations too, so Smith(M) is |p| followed by
    the Smith form of the live rows.

    Termination: order states by (live rows, least |entry|).  No step adds
    a live row, and a pass that takes no pivot leaves an entry smaller
    than the p it picked: a remainder at c, or the pivot row's remainder
    modulo p, nonzero after a fold where the added row is not divisible
    by p.
    """
    if track and smith:
        # the Smith fold re-admits a pivot row without its combination
        raise ValueError("eliminate tracks no combinations with smith")
    live = {}      # row id -> {col: nonzero value}
    nrows_in = defaultdict(int)  # col -> number of live rows nonzero there
    heap = []      # (length, row id) of rows that hold a +-1 entry

    def admit(i, r):
        """Make the nonzero row r live as row i."""
        live[i] = r
        for k in r:
            nrows_in[k] += 1
        vals = r.values()
        if 1 in vals or -1 in vals:
            heapq.heappush(heap, (len(r), i))

    def take(i):
        """Take row i out of the live rows."""
        r = live.pop(i)
        for k in r:
            nrows_in[k] -= 1
        return r

    for i, r in enumerate(rows):
        if r:
            admit(i, r)
    combos = {i: {i: 1} for i in live} if track else None

    pivots = []
    while live:
        c = None
        while heap and c is None:
            length, i = heapq.heappop(heap)
            top = live.get(i)
            if top is None or len(top) != length:
                continue        # stale entry: the row was changed or taken
            fewest = len(live) + 1
            for k, v in top.items():
                if (v == 1 or v == -1) and nrows_in[k] < fewest:
                    c, fewest = k, nrows_in[k]
        if c is None:
            least = None
            for j, r in live.items():
                for k, v in r.items():
                    if least is None or abs(v) < least:
                        least, i, c = abs(v), j, k
            top = live[i]
        p = top[c]
        top_combo = combos[i] if track else None
        kept = False    # some row keeps an entry at c
        in_c = map(contains, live.values(), repeat(c))
        for j in list(compress(live.keys(), in_c)):   # live rows nonzero at c
            if j == i:
                continue
            r = live[j]
            q = r[c] // p
            for k, v in top.items():
                x = r.get(k, 0) - q * v
                if x:
                    if k not in r:
                        nrows_in[k] += 1
                    r[k] = x
                else:
                    del r[k]
                    nrows_in[k] -= 1
            if track:
                poly_add_scaled(combos[j], top_combo, -q)
            if not r:
                del live[j]
                if track:
                    del combos[j]
                continue
            if c in r:
                kept = True
            vals = r.values()
            if 1 in vals or -1 in vals:
                heapq.heappush(heap, (len(r), j))
        if not kept and smith and p != 1 and p != -1:
            rest = {k: v % p for k, v in top.items() if v % p}
            if not rest:
                bad = next((r for r in live.values()
                            if any(v % p for v in r.values())), {})
                rest = {k: v % p for k, v in bad.items() if v % p}
            if rest:
                take(i)
                rest[c] = p
                admit(i, rest)
                kept = True
        if kept:
            continue
        take(i)
        pivots.append((c, top, combos.pop(i) if track else None))
    return pivots


def bareiss_rank(rows):
    """Rank over Q of an integer matrix given as dense int rows: the number
    of pivots ``eliminate`` takes.  The name is kept for the benchmark's
    tracing."""
    return len(eliminate(map(sparse_row, rows)))
