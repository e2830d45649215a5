"""The element arithmetic shared by every ``backend.Terms`` subclass."""

import pytest

from dpinv.backend import Terms
from dpinv.freering import Alphabet, FreePoly, parse_freepoly, word_from_str
from dpinv.gamma import ContextError, DPMonomial, GammaElement
from dpinv.invariants import CommPoly, MatrixInvariants

AB = Alphabet("xy")
XY = word_from_str("xy", AB)


def free_poly():
    return parse_freepoly("2*x*y - y + 3", AB)


def gamma_element(level=None):
    return GammaElement({DPMonomial.single(XY, 2): 3,
                         DPMonomial(((word_from_str("x", AB), 1),)): -1},
                        level)


def comm_poly(n=2):
    return MatrixInvariants.get(AB, n).generic_matrix("x").trace() - 5


# each element, an element of another context, and the error mixing them
# raises; the free ring has a single context, so only a foreign type
# mismatches it
CASES = {
    "FreePoly": (free_poly, gamma_element, TypeError),
    "GammaElement": (gamma_element, lambda: gamma_element(2), ContextError),
    "CommPoly": (comm_poly, lambda: comm_poly(3), ValueError),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, foreign, error = CASES[request.param]
    return make(), foreign(), error


def test_sums_and_negation(case):
    x, _, _ = case
    assert isinstance(x, Terms) and not x.is_zero()
    assert (x - x).is_zero() and (0 * x).is_zero() and (x * 0).is_zero()
    assert -(-x) == x and x + (-x) == x - x
    assert x + x == 2 * x == x * 2 and (x + x) - x == x
    assert x - x == x._like({})


def test_types_and_contexts_separate_equal_terms(case):
    x, foreign, _ = case
    for other in (free_poly(), gamma_element(), comm_poly()):
        if type(other) is not type(x):
            assert other._like(dict(x.terms)) != x
    assert foreign._like(dict(x.terms)) != x


def test_elements_are_unhashable(case):
    x, _, _ = case
    with pytest.raises(TypeError):
        hash(x)


def test_context_mismatch_raises_the_types_own_error(case):
    x, foreign, error = case
    for op in (x.__add__, x.__sub__):
        with pytest.raises(error) as info:
            op(foreign)
        assert info.type is error


def test_coeff_vector_reads_the_column_map(case):
    x, _, _ = case
    keys = list(x.terms)
    columns = {k: len(keys) - 1 - i for i, k in enumerate(keys)}
    assert x.coeff_vector(columns) == [x.terms[k] for k in reversed(keys)]


def test_powers_use_the_ring_product():
    f = free_poly()
    assert f ** 0 == FreePoly.one() and f ** 3 == f * f * f
    p = comm_poly()
    assert p ** 0 == CommPoly.const(p.ring, 1) and p ** 2 == p * p
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(TypeError):
        gamma_element() ** 2


def test_comm_poly_takes_integers_as_constants():
    p = comm_poly()
    assert p + 5 == 5 + p == p - (-5)
    assert 1 - p == -(p - 1) and (p - p + 7) == CommPoly.const(p.ring, 7)
    with pytest.raises(TypeError):
        free_poly() + 1
