"""Exact linear algebra over the integers, and span membership over Q.

Rank, Smith normal form and span membership all run one sparse
unimodular row elimination, ``backend.eliminate``, whose pivot rows are an
echelon Z-basis of the row lattice.  Rank counts its pivots.  The Smith
form is the absolute values of its pivots when it also reduces each
non-unit pivot row by column operations and takes it only once it
divides every row left.  Span membership has the loop carry each row's
combination of the input rows and reduces the target against the
pivots, so its certificate is all ints exactly when the target lies in
the rows' Z-lattice; a Fraction appears only when the target needs a
denominator.
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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def rank(self) -> int:
        """Rank over Q."""
        return bareiss_rank(self.rows)

    def smith_normal_form(self) -> list[int]:
        """Nonzero elementary divisors d_1 | d_2 | ..., all positive."""
        return smith_divisors(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def smith_divisors(rows: list[list[int]]) -> list[int]:
    """Elementary divisors of an integer matrix: the pivots of
    ``eliminate`` with ``smith``."""
    return [abs(row[c]) for c, row, _ in eliminate(map(sparse_row, rows),
                                                     smith=True)]


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
    Odlyzko, CRYPTO '90): ``backend.eliminate`` with ``track``.  Its pivot
    rows are an echelon Z-basis of the rows' lattice, each zero at every
    earlier pivot column, so one pass over the pivots in order clears the
    target there.  Where the pivot p divides the target's entry a, the
    step is ``t -= (a // p) * row``; the target is in the Z-lattice exactly
    when every step is of this kind and ``t`` reduces to zero.  Otherwise,
    for membership over Q, the target takes the scale ``s = p / gcd(p,
    a)``: ``t = s*t - (a / gcd(p, a))*row``.  So ``t == d * target +
    sum(combo[i] * rows[i])``, and the target is a member when ``t``
    reduces to zero, with certificate ``-combo / d``.
    """
    rows = list(rows)
    if len({len(r) for r in (*rows, target)
            if not isinstance(r, Mapping)}) > 1:
        raise ValueError("dimension mismatch")
    t = sparse_row(target)
    pivots = eliminate(map(sparse_row, rows), track=True)
    combo = {}
    d = 1
    for c, top, top_combo in pivots:
        a = t.get(c)
        if a is None:
            continue
        p = top[c]
        if a % p:
            g = gcd(p, a)
            s, a = p // g, a // g
            d *= s
            for k in t:
                t[k] *= s
            for k in combo:
                combo[k] *= s
        else:
            a //= p
        poly_add_scaled(t, top, -a)
        poly_add_scaled(combo, top_combo, -a)
    if t:
        return False, None
    coeffs = [-combo.get(i, 0) for i in range(len(rows))]
    if d == 1:
        return True, coeffs
    from fractions import Fraction

    return True, [Fraction(c, d) for c in coeffs]
