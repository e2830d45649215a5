"""Property test: the principal-minor sums behind ``charpoly_coeffs`` (and
``MatrixInvariants.e_poly``) agree with the Berkowitz oracle and satisfy
Cayley-Hamilton on random integer matrices."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.invariants import charpoly_coeffs  # noqa: E402
from test_invariants import berkowitz_e  # noqa: E402


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    entry = st.integers(-9, 9)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_charpoly_matches_berkowitz_and_cayley_hamilton(m):
    n = len(m)
    es = charpoly_coeffs(m)
    assert es == berkowitz_e(m)
    # sum_i (-1)^i e_i M^(n-i) = 0, powers from M^0 = I upwards
    total = [[0] * n for _ in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n, -1, -1):
        c = (-1) ** i * es[i]
        total = [[t + c * p for t, p in zip(tr, pr)]
                 for tr, pr in zip(total, power)]
        power = matmul(power, m)
    assert total == [[0] * n for _ in range(n)]
