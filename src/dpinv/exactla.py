"""Exact linear algebra over the integers, span membership included.

Rank, Smith normal form and span membership all run one sparse
unimodular row elimination, ``backend.eliminate``, whose pivot rows are an
echelon Z-basis of the row lattice.  Rank counts its pivots.  The Smith
form is the absolute values of its pivots when it also reduces each
non-unit pivot row by column operations and takes it only once it
divides every row left.  ``reduce_row`` is the one reduction of a row
against those pivots, by division with remainder: the remainder it leaves
is empty exactly when the row lies in their Z-lattice, and is the witness
otherwise.  Span membership is decided over Z: its certificate is read off
that reduction and the pivots' combinations of the input rows, all ints,
and no denominator appears.  The 2.2.2 cell hands its sparse rows to
``eliminate`` and ``reduce_row`` directly.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping

from .backend import (bareiss_rank, combine, eliminate, poly_add_scaled,
                      sparse_row)


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


def reduce_row(pivots, t) -> tuple[dict, dict]:
    """Reduce the ``{col: int}`` row t (not changed) against the pivots of
    ``eliminate`` in their order, by division with remainder.

    Returns ``(coords, rest)`` with ``t == sum(coords[j] * pivots[j][1]) +
    rest``.  At each pivot ``(c, row)`` where t has an entry, the step is
    ``t -= (t[c] // row[c]) * row``, which leaves ``|rest[c]| < |row[c]|``.
    A pivot row is zero at the col of every earlier pivot, so no later step
    touches that remainder: t lies in the pivots' Z-lattice iff ``not
    rest``, and otherwise rest is the witness.
    """
    t = dict(t)
    coords = {}
    for j, (c, row, _) in enumerate(pivots):
        if c in t:
            coords[j] = q = t[c] // row[c]
            poly_add_scaled(t, row, -q)
    return coords, t


def in_span(rows, target) -> tuple[bool, list | None]:
    """Exact membership of target in the Z-lattice of the given rows.

    Rows and target are sparse ``{column: int}`` dicts with any hashable
    column key, or dense int sequences of one common length (read as dicts
    on their positions).  Returns ``(True, c)`` with ``sum(c[i] * rows[i])
    == target``, ``len(c) == len(rows)`` and every ``c[i]`` an int, else
    ``(False, None)``; a target that is a member only over Q is not one.

    Sparse integer elimination that carries row combinations (LaMacchia and
    Odlyzko, CRYPTO '90): ``backend.eliminate`` with ``track``, then
    ``reduce_row``; the certificate is ``sum(coords[j] * combo_j)``.
    """
    rows = list(rows)
    if len({len(r) for r in (*rows, target)
            if not isinstance(r, Mapping)}) > 1:
        raise ValueError("dimension mismatch")
    pivots = eliminate(map(sparse_row, rows), track=True)
    coords, rest = reduce_row(pivots, sparse_row(target))
    if rest:
        return False, None
    combo = combine((a, pivots[j][2]) for j, a in coords.items())
    return True, [combo.get(i, 0) for i in range(len(rows))]
