"""Exact linear algebra over the integers, and span membership over Q.

Rank, Smith normal form and span membership all run one sparse
unimodular row elimination, ``backend.eliminate``, whose pivot rows are an
echelon Z-basis of the row lattice.  Rank counts its pivots.  The Smith
form is the absolute values of its pivots when it also reduces each
non-unit pivot row by column operations and takes it only once it
divides every row left.  ``reduce_row`` is the one reduction of a row
against those pivots: it divides exactly, and reaches zero, exactly when
the row lies in their Z-lattice.  Span membership reads its certificate
off that reduction and the pivots' combinations of the input rows, so it
is all ints exactly when the target lies in the rows' Z-lattice; a
Fraction appears only when the target needs a denominator.  The 2.2.2
cell hands its sparse rows to ``eliminate`` and ``reduce_row`` directly.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from math import gcd

from .backend import bareiss_rank, eliminate, poly_add_scaled, sparse_row


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

    def rank(self) -> int:
        """Rank over Q."""
        return bareiss_rank(self.rows)

    def smith_normal_form(self) -> list[int]:
        """Nonzero elementary divisors d_1 | d_2 | ..., all positive: the
        pivots of ``eliminate`` with ``smith``."""
        return [abs(row[c]) for c, row, _ in
                eliminate(map(sparse_row, self.rows), smith=True)]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def reduce_row(pivots, t) -> tuple[int, dict, dict]:
    """Reduce the ``{col: int}`` row t (not changed) against the pivots of
    ``eliminate`` in their order, which clears t at every pivot col.

    Returns ``(scale, coords, rest)`` with ``scale * t == sum(coords[j] *
    pivots[j][1]) + rest``.  Where the pivot p divides t's entry a, the
    step is ``t -= (a // p) * row``; otherwise t first takes the scale
    ``p / gcd(p, a)``.  So t lies in the pivots' Q-span iff ``not rest``,
    and in their Z-lattice iff also ``scale == 1``.
    """
    t = dict(t)
    coords = {}
    scale = 1
    for j, (c, top, _) in enumerate(pivots):
        a = t.get(c)
        if a is None:
            continue
        p = top[c]
        if a % p:
            g = gcd(p, a)
            s, a = p // g, a // g
            scale *= s
            for k in t:
                t[k] *= s
            for k in coords:
                coords[k] *= s
        else:
            a //= p
        poly_add_scaled(t, top, -a)
        coords[j] = a
    return scale, coords, t


def in_span(rows, target) -> tuple[bool, list | None]:
    """Exact membership of target in the Q-span of the given rows.

    Rows and target are sparse ``{column: int}`` dicts with any hashable
    column key, or dense int sequences of one common length (read as dicts
    on their positions).  Returns ``(True, c)`` with ``sum(c[i] * rows[i])
    == target`` and ``len(c) == len(rows)``, else ``(False, None)``.  The
    certificate is all ints exactly when target lies in the Z-lattice of
    the rows, and all Fractions otherwise, so a target that is a member
    only over Q shows its denominator.

    Sparse integer elimination that carries row combinations (LaMacchia and
    Odlyzko, CRYPTO '90): ``backend.eliminate`` with ``track``, then
    ``reduce_row``; the certificate is ``sum(coords[j] * combo_j) /
    scale``.
    """
    rows = list(rows)
    if len({len(r) for r in (*rows, target)
            if not isinstance(r, Mapping)}) > 1:
        raise ValueError("dimension mismatch")
    pivots = eliminate(map(sparse_row, rows), track=True)
    scale, coords, rest = reduce_row(pivots, sparse_row(target))
    if rest:
        return False, None
    combo = {}
    for j, a in coords.items():
        poly_add_scaled(combo, pivots[j][2], a)
    coeffs = [combo.get(i, 0) for i in range(len(rows))]
    if scale == 1:
        return True, coeffs
    from fractions import Fraction

    return True, [Fraction(c, scale) for c in coeffs]
