"""Kernels for the hot inner loops: sparse term merging and sparse integer
row elimination.

Sparse polynomials are dicts mapping a packed monomial key (a non-negative
int whose fixed-width bit fields hold the exponents) to a nonzero int
coefficient.  Packed keys add when monomials multiply.  ``poly_mul`` does
not look at the fields: ``invariants.PolyRing.checked`` guards every
product once, raising ``OverflowError`` when an exponent reaches 128, the
top bit of its 8-bit field.  Exponents below that bound sum to less than
256, so no product carries into the next field unnoticed.  ``poly_mul``
also multiplies the symmetric-function monomials of ``symfunc``, whose
fields are sized to the weight being expanded so that they cannot carry.
It is the one multiply loop over commutative monomials.

``Terms`` is the element arithmetic over such dicts that every
combination-of-basis-keys type shares: sums, differences, negation,
integer scaling, powers, equality and dense coefficient rows.

``eliminate`` is the one elimination loop over ``{col: int}`` rows: rank
counts its pivots, the Smith form takes its unit pivots, and span
membership has it track each row's combination of the inputs.

This is the only implementation of each kernel.  The module keeps its name
and ``backend_name()`` because the benchmark harness traces
``dpinv.backend.poly_mul`` and ``dpinv.backend.bareiss_rank`` and records
the backend name with every sample.
"""

import heapq
from itertools import compress, count, repeat
from math import gcd
from operator import contains


def backend_name() -> str:
    return "python"


def poly_mul(a, b):
    """Multiply two packed-key polynomial dicts."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
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
    """``{col: value}`` of the nonzero entries of a dense int row."""
    return dict(zip(compress(count(), row), filter(None, row)))


def pivot_factors(p, a):
    """``(s, f)`` with ``s*a == f*p`` and ``s != 0``, the multipliers of the
    step ``r = s*r - f*top`` that clears r's entry a against top's pivot p:
    ``s = 1, f = a*p`` at a unit p, else ``s = p/g, f = a/g`` with
    ``g = gcd(p, a)``."""
    if p == 1 or p == -1:
        return 1, a * p
    g = gcd(p, a)
    return p // g, a // g


def eliminate(rows, track=False, units_only=False):
    """Sparse integer row elimination: the one loop behind rank, the Smith
    form and span membership.

    ``rows`` is an iterable of ``{col: int}`` dicts, which the loop takes
    over and changes in place.  Returns ``(pivots, rest)``: the pivots in
    the order taken, as ``(col, row, combo)``, and the live rows that are
    left.  Each pivot row is nonzero at its col and zero at the col of
    every earlier pivot.  With ``track``, ``combo`` is ``{input index:
    int}`` and ``row == sum(combo[i] * rows[i])``; otherwise it is None.

    While some live row holds a +-1, the loop takes the shortest such row,
    in its unit column with the fewest live rows.  Otherwise it takes an
    entry of least absolute value.  The pivot row leaves the live rows, and
    every live row nonzero at the pivot column is cleared there by
    ``r = s*r - f*top`` (``pivot_factors``).  Zero rows and exact copies of
    a live row are dropped as they appear.  Without ``units_only`` no row
    is left, and the number of pivots is the rank over Q.  With it, the
    loop stops where no live row holds a +-1: every step was then unimodular
    and ``Smith(M) == I_pivots (+) Smith(rest)``, because a unit pivot's
    column is otherwise zero.
    """
    live = {}      # row id -> {col: nonzero value}
    buckets = {}   # hash of a row's items -> ids of live rows with that hash
    hashes = {}    # row id -> its bucket
    nrows_in = {}  # col -> number of live rows that are nonzero there
    heap = []      # (length, row id) of rows that hold a +-1 entry

    def has_unit(r):
        vals = r.values()
        return 1 in vals or -1 in vals

    def admit(i, r):
        """Make r live as row i unless it is zero or a copy of a live row."""
        if not r:
            return False
        h = hash(frozenset(r.items()))
        bucket = buckets.setdefault(h, [])
        if any(live[j] == r for j in bucket):
            return False
        bucket.append(i)
        hashes[i] = h
        live[i] = r
        return True

    def drop(i):
        buckets[hashes.pop(i)].remove(i)
        return live.pop(i)

    def uncount(r):
        for k in r:
            nrows_in[k] -= 1

    for i, r in enumerate(rows):
        if admit(i, r):
            for k in r:
                nrows_in[k] = nrows_in.get(k, 0) + 1
            if has_unit(r):
                heap.append((len(r), i))
    heapq.heapify(heap)
    combos = {i: {i: 1} for i in live} if track else None

    pivots = []
    while live:
        c = None
        while heap and c is None:
            length, i = heapq.heappop(heap)
            top = live.get(i)
            if top is None or len(top) != length:
                continue        # stale entry: the row was changed or dropped
            fewest = len(live) + 1
            for k, v in top.items():
                if (v == 1 or v == -1) and nrows_in[k] < fewest:
                    c, fewest = k, nrows_in[k]
        if c is None:
            if units_only:
                break
            least = None
            for j, r in live.items():
                for k, v in r.items():
                    if least is None or abs(v) < least:
                        least, i, c = abs(v), j, k
            top = live[i]
        p = top[c]
        uncount(drop(i))
        top_combo = combos.pop(i) if track else None
        pivots.append((c, top, top_combo))
        in_c = map(contains, live.values(), repeat(c))
        for j in list(compress(live.keys(), in_c)):   # live rows nonzero at c
            r = drop(j)
            s, f = pivot_factors(p, r[c])
            if s != 1:
                for k in r:
                    r[k] *= s
            for k, v in top.items():
                x = r.get(k, 0) - f * v
                if x:
                    if k not in r:
                        nrows_in[k] += 1
                    r[k] = x
                else:
                    del r[k]
                    nrows_in[k] -= 1
            if track:
                combo = combos[j]
                if s != 1:
                    for k in combo:
                        combo[k] *= s
                poly_add_scaled(combo, top_combo, -f)
            if not admit(j, r):
                uncount(r)
                if track:
                    del combos[j]
            elif has_unit(r):
                heapq.heappush(heap, (len(r), j))
    return pivots, list(live.values())


def bareiss_rank(rows):
    """Rank over Q of an integer matrix given as dense int rows: the number
    of pivots ``eliminate`` takes.  The name is kept for the benchmark's
    tracing."""
    return len(eliminate(map(sparse_row, rows))[0])
