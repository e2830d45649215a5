"""Property test: ``mixed_minor_sum``, behind ``charpoly_coeffs`` and
``MatrixInvariants.e_poly``, agrees with the Berkowitz oracle on one matrix
and on the pencils s M + B, and its e_i satisfy Cayley-Hamilton on random
integer matrices."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.invariants import charpoly_coeffs, mixed_minor_sum  # noqa: E402
from test_invariants import berkowitz_e  # noqa: E402


@st.composite
def matrix_pairs(draw):
    """Two square integer matrices of one order 0..5."""
    n = draw(st.integers(0, 5))
    entry = st.integers(-9, 9)
    return tuple([[draw(entry) for _ in range(n)] for _ in range(n)]
                 for _ in range(2))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_charpoly_matches_berkowitz_and_cayley_hamilton(pair):
    m, b = pair
    n = len(m)
    es = charpoly_coeffs(m)
    assert es == berkowitz_e(m)
    # e_i(s M + B) = sum_a s^a [t_1^a t_2^(i-a)] of det(t_0 I + t_1 M +
    # t_2 B) at t_0^(n-i); the i + 1 values s = 0..i pin every coefficient
    for i in range(n + 1):
        mixed = [mixed_minor_sum([m, b], (a, i - a), n) for a in range(i + 1)]
        for s in range(i + 1):
            pencil = [[s * x + y for x, y in zip(mr, br)]
                      for mr, br in zip(m, b)]
            assert sum(s ** a * c for a, c in enumerate(mixed)) == \
                berkowitz_e(pencil)[i], (i, s)
    # sum_i (-1)^i e_i M^(n-i) = 0, powers from M^0 = I upwards
    total = [[0] * n for _ in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n, -1, -1):
        c = (-1) ** i * es[i]
        total = [[t + c * p for t, p in zip(tr, pr)]
                 for tr, pr in zip(total, power)]
        power = matmul(power, m)
    assert total == [[0] * n for _ in range(n)]
