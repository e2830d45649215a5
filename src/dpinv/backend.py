"""Kernels for the hot inner loops: sparse term merging, unit-pivot
elimination and exact rank.

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

This is the only implementation of each kernel.  The module keeps its name
and ``backend_name()`` because the benchmark harness traces
``dpinv.backend.poly_mul`` and ``dpinv.backend.bareiss_rank`` and records
the backend name with every sample.
"""

import heapq
from itertools import compress, count, repeat
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


def unit_pivot_reduce(rows):
    """Split off the unit pivots of an integer matrix by sparse elimination.

    Returns ``(units, rest, ncols)`` such that the matrix is equivalent over
    Z to ``I_units`` (+) ``rest``, where ``rest`` is a dense matrix on its
    ``ncols`` nonzero columns with no entry +-1.  Rank and every nonzero
    elementary divisor are therefore those of ``rest`` plus ``units`` ones.

    Rows are kept as sparse ``{col: value}`` dicts.  Each step takes the
    shortest row holding a +-1, in the column of fewest rows, clears that
    column from every other row by integer row operations and removes the
    pivot row, which ``Smith(M) = [1] (+) Smith(M')`` allows once its column
    is otherwise zero.  Zero rows and exact copies of a live row are dropped
    as they appear.  Nothing is ever divided.
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

    for i, row in enumerate(rows):
        r = dict(zip(compress(count(), row), filter(None, row)))
        if admit(i, r):
            for k in r:
                nrows_in[k] = nrows_in.get(k, 0) + 1
            if has_unit(r):
                heap.append((len(r), i))
    heapq.heapify(heap)

    units = 0
    while heap:
        length, i = heapq.heappop(heap)
        top = live.get(i)
        if top is None or len(top) != length:
            continue            # stale entry: the row was changed or dropped
        c, fewest = None, len(live) + 1
        for k, v in top.items():
            if (v == 1 or v == -1) and nrows_in[k] < fewest:
                c, fewest = k, nrows_in[k]
        if c is None:
            continue
        s = top[c]
        uncount(drop(i))
        units += 1
        in_c = map(contains, live.values(), repeat(c))
        for j in list(compress(live.keys(), in_c)):   # live rows nonzero at c
            r = drop(j)
            f = r[c] * s
            for k, v in top.items():
                x = r.get(k, 0) - f * v
                if x:
                    if k not in r:
                        nrows_in[k] += 1
                    r[k] = x
                else:
                    del r[k]
                    nrows_in[k] -= 1
            if not admit(j, r):
                uncount(r)
            elif has_unit(r):
                heapq.heappush(heap, (len(r), j))

    used = sorted({k for r in live.values() for k in r})
    rest = [[r.get(k, 0) for k in used] for r in live.values()]
    return units, rest, len(used)


def bareiss_rank(rows):
    """Rank over Q of an integer matrix (list of equal-length int lists):
    the unit pivots of ``unit_pivot_reduce``, then Bareiss on the rest."""
    units, rest, _ = unit_pivot_reduce(rows)
    return units + dense_bareiss_rank(rest)


def dense_bareiss_rank(rows):
    """Rank over Q of a dense integer matrix by fraction-free Bareiss
    elimination: every intermediate entry is a minor of the input, and the
    division by the previous pivot is exact."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = -1
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        top = m[rank]
        for i in range(rank + 1, nrows):
            mi = m[i]
            a = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (p * mi[j] - a * top[j]) // prev
            mi[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank
