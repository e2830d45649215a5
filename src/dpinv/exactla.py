"""Exact dense linear algebra over the integers, and span membership over Q.

Ranks use fraction-free Bareiss elimination (Bareiss 1968, Math. Comp. 22)
on integer matrices; Smith normal form and span membership are plain
desk-scale implementations, good for the few-hundred-column matrices the
graded checks produce.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .backend import bareiss_rank


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
        return smith_divisors(self.rows, self.ncols)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def rank_of_rows(rows) -> int:
    return ExactMatrix(rows).rank()


def smith_divisors(m: list[list[int]], ncols: int) -> list[int]:
    """Elementary divisors of an integer matrix by repeated gcd reduction."""
    m = [list(r) for r in m]
    nrows = len(m)
    divisors: list[int] = []
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


def in_span(vectors, target) -> tuple[bool, list[Fraction] | None]:
    """Exact membership of target in the Q-span of the given vectors.

    Returns (True, coefficients) with sum(c_i * v_i) == target, else
    (False, None).  Gaussian elimination over Fraction.
    """
    vecs = [list(map(Fraction, v)) for v in vectors]
    t = list(map(Fraction, target))
    if vecs and any(len(v) != len(t) for v in vecs):
        raise ValueError("dimension mismatch")
    n = len(t)
    k = len(vecs)
    # columns are the vectors, target is the RHS
    aug = [[vecs[j][i] for j in range(k)] + [t[i]] for i in range(n)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [a / pv for a in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    for i in range(row, n):
        if aug[i][k]:
            return False, None
    coeffs = [Fraction(0)] * k
    for r, c in pivots:
        coeffs[c] = aug[r][k]
    return True, coeffs
