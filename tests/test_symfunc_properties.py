"""Property test: m_to_e(alpha, nvars), evaluated at an integer point, is
the sum of x^beta over the orbit of alpha.  Both sides are evaluated
without expanding a polynomial: e_k by the elementary-symmetric recurrence,
the orbit sum by handing the parts of alpha out to the variables."""

from math import prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.symfunc import m_to_e  # noqa: E402


def elementary_values(point) -> list[int]:
    """e_0..e_N at point, adding one variable at a time."""
    e = [1] + [0] * len(point)
    for x in point:
        for k in range(len(point), 0, -1):
            e[k] += x * e[k - 1]
    return e


def orbit_sum(alpha, point) -> int:
    """m_alpha at point: each variable in turn takes one part not yet
    taken, or exponent 0; every part must be taken by the end."""
    states = {tuple(alpha): 1}
    for x in point:
        nxt: dict[tuple, int] = {}
        for left, v in states.items():
            nxt[left] = nxt.get(left, 0) + v
            for part in set(left):
                i = left.index(part)
                rest = left[:i] + left[i + 1:]
                nxt[rest] = nxt.get(rest, 0) + v * x ** part
        states = nxt
    return states.get((), 0)


@st.composite
def cases(draw):
    nvars = draw(st.integers(1, 12))
    parts = []
    for part in draw(st.lists(st.integers(1, 12), max_size=nvars)):
        if sum(parts) + part <= 12:  # weight at most 12
            parts.append(part)
    point = draw(st.lists(st.integers(-3, 3), min_size=nvars,
                          max_size=nvars))
    return tuple(sorted(parts, reverse=True)), nvars, point


def test_orbit_sum_oracle_examples():
    # m_21 at (1, 2, 3): x^2 y summed over ordered pairs of distinct variables
    p = (1, 2, 3)
    assert orbit_sum((2, 1), p) == sum(
        p[i] ** 2 * p[j] for i in range(3) for j in range(3) if i != j)
    assert orbit_sum((1, 1, 1), (2, 3, 5)) == 30
    assert orbit_sum((), (7,)) == 1
    assert elementary_values((2, 3, 5)) == [1, 10, 31, 30]


@settings(max_examples=100, deadline=None)
@given(cases())
def test_m_to_e_evaluates_to_the_orbit_sum(case):
    alpha, nvars, point = case
    e = elementary_values(point)
    value = sum(c * prod(e[part] for part in lam)
                for lam, c in m_to_e(alpha, nvars).terms.items())
    assert value == orbit_sum(alpha, point)
