"""Exact linear algebra over the integers, and span membership over Q.

Rank and Smith normal form first split off the unit pivots of a matrix by
sparse integer row elimination (``backend.unit_pivot_reduce``), which on the
relation and pairing matrices of the graded checks usually leaves nothing.
Whatever remains is handled densely: rank by fraction-free Bareiss
elimination (Bareiss 1968, Math. Comp. 22), the Smith form by repeated gcd
reduction.  Span membership (``in_span``) is sparse integer elimination
whose rows carry their combinations of the input rows, so its certificates
come out as ints; a Fraction appears only when the target needs a
denominator.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from math import gcd

from .backend import bareiss_rank, poly_add_scaled, unit_pivot_reduce


class ExactMatrix:
    """Rectangular matrix of ints stored densely by rows."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        """Copy rows; entries must be ints (float or Fraction raises
        TypeError) and every row must have ncols entries when it is given."""
        self.rows = [list(map(operator.index, r)) for r in rows]
        if self.rows:
            width = len(self.rows[0])
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} but rows have {width} entries")
            self.ncols = width
            for r in self.rows:
                if len(r) != width:
                    raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def rank(self) -> int:
        """Rank over Q."""
        if not self.rows or self.ncols == 0:
            return 0
        return bareiss_rank(self.rows)

    def smith_normal_form(self) -> list[int]:
        """Nonzero elementary divisors d_1 | d_2 | ..., all positive."""
        return smith_divisors(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def rank_of_rows(rows) -> int:
    return ExactMatrix(rows).rank()


def smith_divisors(rows: list[list[int]]) -> list[int]:
    """Elementary divisors of an integer matrix: the unit pivots of
    ``unit_pivot_reduce``, then repeated gcd reduction of the rest."""
    units, m, ncols = unit_pivot_reduce(rows)
    nrows = len(m)
    divisors = [1] * units
    t = 0
    while t < nrows and t < ncols:
        pi = pj = -1
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j]:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            _clear_cross(m, t, nrows, ncols)
            p = abs(m[t][t])
            if p == 1:
                break           # a unit divides every entry
            bad = -1
            for i in range(t + 1, nrows):
                if any(m[i][j] % p for j in range(t + 1, ncols)):
                    bad = i
                    break
            if bad < 0:
                break
            # fold the offending row into the pivot row; the next pass of
            # gcd clearing strictly shrinks the pivot, so this terminates
            for j in range(t, ncols):
                m[t][j] += m[bad][j]
        divisors.append(abs(m[t][t]))
        t += 1
    return divisors


def _clear_cross(m: list[list[int]], t: int, nrows: int, ncols: int) -> None:
    """Zero out row t and column t beyond the pivot via gcd row/col ops."""
    while True:
        for i in range(t + 1, nrows):
            a = m[i][t]
            if not a:
                continue
            p = m[t][t]
            if a % p == 0:
                q = a // p
                for j in range(t, ncols):
                    m[i][j] -= q * m[t][j]
            else:
                x, y, g = _xgcd(p, a)
                pq, aq = p // g, a // g
                for j in range(t, ncols):
                    top, cur = m[t][j], m[i][j]
                    m[t][j] = x * top + y * cur
                    m[i][j] = -aq * top + pq * cur
        for j in range(t + 1, ncols):
            a = m[t][j]
            if not a:
                continue
            p = m[t][t]
            if a % p == 0:
                q = a // p
                for i in range(t, nrows):
                    m[i][j] -= q * m[i][t]
            else:
                x, y, g = _xgcd(p, a)
                pq, aq = p // g, a // g
                for i in range(t, nrows):
                    left, cur = m[i][t], m[i][j]
                    m[i][t] = x * left + y * cur
                    m[i][j] = -aq * left + pq * cur
        if all(m[i][t] == 0 for i in range(t + 1, nrows)) and \
                all(m[t][j] == 0 for j in range(t + 1, ncols)):
            return


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def in_span(rows, target) -> tuple[bool, list | None]:
    """Exact membership of target in the Q-span of the given rows.

    Rows and target are sparse ``{column: int}`` dicts with any hashable
    column key, or dense int sequences of one common length (read as dicts
    on their positions).  Returns ``(True, c)`` with ``sum(c[i] * rows[i])
    == target`` and ``len(c) == len(rows)``, else ``(False, None)``.  The
    certificate holds ints when the scale below divides every entry, and
    Fractions otherwise, so a target that is a member only over Q shows
    its denominator.

    Sparse integer elimination that carries row combinations (LaMacchia and
    Odlyzko, CRYPTO '90).  Each pivot row ``r`` keeps ``{input id: int}``
    with ``r == sum(combo[i] * rows[i])``.  A row's pivot is a +-1 entry
    where it has one, else its entry of least absolute value; a unit pivot
    clears its column by ``r -= f * top``, any other by the fraction-free
    step ``r = p * r - a * top``, with p and a divided by their gcd.  Pivot
    rows are kept reduced in every other pivot column, so one pass over a
    row's pivot columns reduces it.  Only the target carries a scale:
    ``t == d * target + sum(combo[i] * rows[i])``, and it is a member when
    ``t`` reduces to zero, with certificate ``-combo / d``.
    """
    widths = set()
    sparse = [_sparse_row(r, widths) for r in rows]
    t = _sparse_row(target, widths)
    if len(widths) > 1:
        raise ValueError("dimension mismatch")
    pivots = {}     # pivot column -> (row, combo), reduced in other pivots
    for i, r in enumerate(sparse):
        combo = {i: 1}
        _reduce(r, combo, pivots)
        if not r:
            continue
        c = _pivot_column(r)
        p = r[c]
        for top, top_combo in pivots.values():
            if c in top:
                _eliminate(top, top_combo, r, combo, p, top[c])
        pivots[c] = (r, combo)
    combo = {}
    d = _reduce(t, combo, pivots)
    if t:
        return False, None
    coeffs = [-combo.get(i, 0) for i in range(len(sparse))]
    if all(c % d == 0 for c in coeffs):
        return True, [c // d for c in coeffs]
    from fractions import Fraction

    return True, [Fraction(c, d) for c in coeffs]


def _sparse_row(row, widths: set) -> dict:
    """A fresh ``{column: int}`` dict of the nonzero entries of row, a
    mapping or a dense sequence (whose length goes into widths)."""
    if isinstance(row, Mapping):
        keys, values = row.keys(), row.values()
    else:
        values = list(row)
        keys = range(len(values))
        widths.add(len(values))
    return {k: v for k, v in zip(keys, map(operator.index, values)) if v}


def _pivot_column(r: dict):
    """A column where r holds +-1, else one of its least absolute value."""
    best, least = None, 0
    for k, v in r.items():
        if v == 1 or v == -1:
            return k
        if best is None or abs(v) < least:
            best, least = k, abs(v)
    return best


def _reduce(r: dict, combo: dict, pivots: dict) -> int:
    """Clear every pivot column from r in one pass, applying the same
    operations to combo; returns the scale that r was multiplied by."""
    d = 1
    for c in [c for c in r if c in pivots]:
        top, top_combo = pivots[c]
        d *= _eliminate(r, combo, top, top_combo, top[c], r[c])
    return d


def _eliminate(r: dict, combo: dict, top: dict, top_combo: dict,
               p: int, a: int) -> int:
    """Clear r's entry a against top's pivot p by ``r = s*r - f*top`` and
    ``combo = s*combo - f*top_combo``, where ``s = p/g``, ``f = a/g`` and
    g is gcd(p, a) with p's sign, so that ``s > 0``.  Returns s."""
    g = gcd(p, a) if p > 0 else -gcd(p, a)
    s, f = p // g, a // g
    if s != 1:
        for k in r:
            r[k] *= s
        for k in combo:
            combo[k] *= s
    poly_add_scaled(r, top, -f)
    poly_add_scaled(combo, top_combo, -f)
    return s
