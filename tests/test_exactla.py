import random
from fractions import Fraction
from math import prod

import pytest

from dpinv.backend import eliminate
from dpinv.exactla import ExactMatrix, in_span


def fraction_gauss_rank(rows):
    """Independent rank oracle: straightforward elimination over Fraction."""
    m = [[Fraction(a) for a in r] for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [a / pv for a in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_in_span(vectors, target):
    """Independent membership oracle: dense Gaussian elimination over
    Fraction on the augmented matrix whose columns are the vectors.

    Returns (True, coefficients) with sum(c_i * v_i) == target, else
    (False, None)."""
    vecs = [list(map(Fraction, v)) for v in vectors]
    t = list(map(Fraction, target))
    if vecs and any(len(v) != len(t) for v in vecs):
        raise ValueError("dimension mismatch")
    n = len(t)
    k = len(vecs)
    aug = [[vecs[j][i] for j in range(k)] + [t[i]] for i in range(n)]
    pivots = []
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


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(n))


def test_rank_examples():
    assert ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert ExactMatrix([[2, 4], [3, 6]]).rank() == 1
    assert ExactMatrix([], ncols=5).rank() == 0
    assert ExactMatrix([[0, 0], [0, 0]]).rank() == 0


def test_rank_matches_fraction_gauss():
    rng = random.Random(2024)
    for _ in range(400):
        nr, nc = rng.randint(0, 7), rng.randint(1, 7)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        assert ExactMatrix(rows, nc).rank() == fraction_gauss_rank(rows)


def test_rejects_non_integer_entries_and_wrong_ncols():
    # a float reaching Bareiss' floor division gave rank 1 for this rank-2
    # matrix, and a disagreeing ncols was silently ignored
    with pytest.raises(TypeError):
        ExactMatrix([[0.5, 0.25], [0.25, 0.5]])
    with pytest.raises(TypeError):
        ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [1, 2]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]], ncols=5)
    m = ExactMatrix([[1, 2]], ncols=2)
    assert (m.nrows, m.ncols) == (1, 2)


def test_rank_invariant_under_shuffles_and_scalings():
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        base = ExactMatrix(rows, nc).rank()
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [[rng.choice([1, 2, -3, 5]) * a for a in r] for r in shuffled]
        assert ExactMatrix(scaled, nc).rank() == base


def test_smith_examples():
    assert ExactMatrix([[1, 0], [0, 1]]).smith_normal_form() == [1, 1]
    assert ExactMatrix([[2, 0], [0, 4]]).smith_normal_form() == [2, 4]
    # the commutator span of the degree-(1,1) slice at level 1: one row
    # (1, -1) inside Z^2; quotient is Z, torsion-free
    assert ExactMatrix([[1, -1]]).smith_normal_form() == [1]


def test_smith_divisibility_chain_and_det():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = ExactMatrix(m).smith_normal_form()
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        det = abs(cofactor_det(m))
        if det:
            assert prod(d) == det
        else:
            assert len(d) < n


def test_rank_and_smith_without_unit_entries():
    # entries in {0, +-2, +-3, +-6}: no pivot is a unit at first, so the
    # elimination divides with remainder until one is, and the Smith form
    # folds rows into a pivot that does not divide them
    cases = [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[2, 4], [6, 8]], [2, 4]),
        ([[2, 3], [3, -2]], [1, 13]),
        ([[6, 6], [0, 0], [6, 6], [2, -2]], [2, 12]),
        ([[2, -6, 6], [3, -6, 0], [-2, 6, -6]], [1, 6]),
        ([[2, 0, 6], [3, 0, 9]], [1]),
        # the pivot 2 has a 3 beside it, which the modulo step keeps; a
        # fold of (0, 0, 3) in its place would give [1, 6]
        ([[0, 0, 3], [2, 3, 0]], [1, 3]),
        ([[0, 0], [0, 0]], []),
        # the first pivot leaves (0, 2, 4) twice, then (0, 0, -4) twice:
        # copies that are not in the input and reduce to zero
        ([[2, 4, 6], [2, 6, 10], [0, 2, 4]], [2, 2]),
        ([[4, 6, 0], [2, 3, 2], [2, 3, -2]], [1, 4]),
    ]
    for rows, divisors in cases:
        m = ExactMatrix(rows)
        assert m.smith_normal_form() == divisors, rows
        assert m.rank() == len(divisors) == fraction_gauss_rank(rows), rows


def test_smith_with_units_and_torsion_left_over():
    # the unit pivot clears row 1 to (0, -2, 0); the rest is diag(-2, 4)
    assert ExactMatrix([[1, 1, 0], [1, -1, 0], [0, 0, 4]]) \
        .smith_normal_form() == [1, 2, 4]
    # a unimodular change of rows and columns keeps the divisors
    assert ExactMatrix([[2, 0, 0], [0, 6, 0], [1, 0, 1]]) \
        .smith_normal_form() == [1, 2, 6]
    # the unit pivot in (0, 1, 2) turns both other rows into (1, 0, -1)
    m = ExactMatrix([[1, 2, 3], [1, 3, 5], [0, 1, 2]])
    assert m.smith_normal_form() == [1, 1] and m.rank() == 2


def test_eliminate_refuses_to_track_with_smith():
    # the Smith fold re-admitted [2, 3] as the pivot row [2, 1] with the
    # combination {0: 1}, which rebuilds [2, 3]
    with pytest.raises(ValueError):
        eliminate([{0: 2, 1: 3}], track=True, smith=True)


def test_in_span_examples():
    ok, coeffs = in_span([[1, 0], [0, 1]], [3, -2])
    assert ok and coeffs == [3, -2]
    ok, _ = in_span([[1, 0]], [0, 1])
    assert not ok
    ok, coeffs = in_span([[2, 4], [1, 2]], [3, 6])
    assert ok
    assert coeffs[0] * 2 + coeffs[1] == 3
    # rows that become equal during elimination, as in the Smith examples
    for rows, target, member in [
            ([[1, 2, 3], [1, 3, 5], [0, 1, 2]], [0, 1, 2], True),
            ([[2, 4, 6], [2, 6, 10], [0, 2, 4]], [0, 1, 2], False),
            ([[2, 4, 6], [2, 6, 10], [0, 2, 4]], [2, 2, 2], True),
            ([[4, 6, 0], [2, 3, 2], [2, 3, -2]], [0, 0, 4], True)]:
        ok, coeffs = in_span(rows, target)
        assert ok == member, (rows, target)
        assert not ok or [sum(c * r[j] for c, r in zip(coeffs, rows))
                          for j in range(3)] == target


def test_in_span_certificate_reconstructs_target():
    rng = random.Random(3)
    for _ in range(50):
        dim, k = rng.randint(1, 5), rng.randint(1, 4)
        vecs = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        target = [sum(c * v[i] for c, v in zip(coeffs, vecs))
                  for i in range(dim)]
        ok, cert = in_span(vecs, target)
        assert ok
        rebuilt = [sum(c * v[i] for c, v in zip(cert, vecs))
                   for i in range(dim)]
        assert rebuilt == target


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span([[1, 2]], [1, 2, 3])
    with pytest.raises(ValueError):
        in_span([[1, 2], [1, 2, 3]], {0: 1})


def test_in_span_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        in_span([[0.5, 1]], [1, 2])
    with pytest.raises(TypeError):
        in_span([{"a": 1}], {"a": Fraction(1, 2)})


def test_in_span_sparse_rows_with_any_keys():
    rows = [{("x", 1): 1, "y": 2}, {"y": 4, 7: -1}]
    ok, cert = in_span(rows, {("x", 1): 2, 7: 1})
    assert ok and cert == [2, -1]
    assert all(type(c) is int for c in cert)
    assert in_span(rows, {"y": 1}) == (False, None)
    # the inputs are left as they were
    assert rows == [{("x", 1): 1, "y": 2}, {"y": 4, 7: -1}]


def test_in_span_rejects_a_member_over_q_only():
    # 1 = (1/2) * 2: a member over Q that needs a denominator is not one
    assert in_span([{0: 2}], {0: 1}) == (False, None)
    assert in_span([[2, 0], [0, 3]], [1, 1]) == (False, None)
    assert in_span([[2, 4], [1, 3]], [1, 2]) == (False, None)
    # no unit entry anywhere, yet the target is in the Z-lattice
    ok, cert = in_span([[2, 3], [3, -2]], [5, 1])
    assert ok and cert == [1, 1] and all(type(c) is int for c in cert)


def test_in_span_certificate_is_integral_on_the_lattice():
    # 1 = -2 + 3: a member of the rows' Z-lattice gets an int certificate
    # although no row divides it
    ok, cert = in_span([[2], [3]], [1])
    assert ok and cert == [-1, 1] and all(type(c) is int for c in cert)
    ok, cert = in_span([[4, 6], [6, 9], [2, 4]], [0, 1])
    assert ok and all(type(c) is int for c in cert)
    assert [sum(c * r[j] for c, r in zip(cert, [[4, 6], [6, 9], [2, 4]]))
            for j in range(2)] == [0, 1]


def test_in_span_empty_and_zero_cases():
    assert in_span([], {}) == (True, [])
    assert in_span([], [0, 0]) == (True, [])
    assert in_span([], {"a": 1}) == (False, None)
    ok, cert = in_span([[0, 0], [1, 1]], [0, 0])
    assert ok and cert == [0, 0]
