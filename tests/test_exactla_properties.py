"""Property tests: the pivots of the sparse elimination, exact rank against
Fraction elimination, the Smith form against sympy and span membership
over Z against dense Fraction elimination and sympy's Smith form, as is
the reduction of a row against the pivots, on random small integer
matrices with and without unit entries, with repeated and zero rows."""

from math import prod

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from dpinv.backend import (bareiss_rank, eliminate,  # noqa: E402
                           poly_add_scaled, sparse_row)
from dpinv.exactla import ExactMatrix, in_span, reduce_row  # noqa: E402
from test_exactla import fraction_gauss_rank, fraction_in_span  # noqa: E402

# entries without +-1 make every pivot a non-unit, found by repeated
# division steps, and leave the Smith form its folds
NO_UNITS = st.sampled_from([0, 2, -2, 3, -3, 6, -6])

# after the first pivot two rows are equal: copies made by the elimination
BECOME_COPIES = ([[1, 2, 3], [1, 3, 5], [0, 1, 2]],
                 [[2, 4, 6], [2, 6, 10], [0, 2, 4]],
                 [[4, 6, 0], [2, 3, 2], [2, 3, -2]])


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = draw(st.sampled_from([st.integers(-6, 6), NO_UNITS]))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    copies = draw(st.lists(st.sampled_from(range(nrows)), max_size=2))
    return rows + [list(rows[i]) for i in copies]


def sympy_divisors(rows):
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    return [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example(BECOME_COPIES[0])
@example(BECOME_COPIES[1])
@example(BECOME_COPIES[2])
def test_eliminate_pivots_are_tracked_echelon_rows(rows):
    pivots = eliminate(map(sparse_row, rows), track=True)
    cols = [c for c, _, _ in pivots]
    for n, (c, row, combo) in enumerate(pivots):
        rebuilt = {}
        for i, x in combo.items():
            poly_add_scaled(rebuilt, sparse_row(rows[i]), x)
        assert rebuilt == row
        assert row[c] and not any(k in row for k in cols[:n])
    assert len(pivots) == fraction_gauss_rank(rows)
    # every step is unimodular, so the pivot rows, a sublattice of the same
    # rank, have the rows' divisors: they are a Z-basis of the row lattice
    basis = [[row.get(k, 0) for k in range(len(rows[0]))]
             for _, row, _ in pivots]
    assert sympy_divisors(basis) == sympy_divisors(rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_fraction_gauss(rows):
    assert bareiss_rank(rows) == fraction_gauss_rank(rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example(BECOME_COPIES[0])
@example(BECOME_COPIES[1])
@example(BECOME_COPIES[2])
def test_smith_matches_sympy(rows):
    assert ExactMatrix(rows).smith_normal_form() == sympy_divisors(rows)


@st.composite
def span_problems(draw):
    """Rows and a target, both dense; the target is drawn at random or as
    an integer combination of the rows."""
    rows = draw(matrices())
    ncols = len(rows[0])
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                               max_size=len(rows)))
        target = [sum(c * r[j] for c, r in zip(coeffs, rows))
                  for j in range(ncols)]
    else:
        target = draw(st.lists(st.integers(-6, 6), min_size=ncols,
                               max_size=ncols))
    return rows, target


def _tuple_keyed(row, keep_zeros):
    return {(j % 2, -j): v for j, v in enumerate(row) if v or keep_zeros}


@settings(max_examples=400, deadline=None)
@given(span_problems(), st.sampled_from(["dense", "dict", "dict+zeros"]))
def test_in_span_matches_fraction_oracle(problem, form):
    rows, target = problem
    if form == "dense":
        args = (rows, target)
    else:
        keep = form == "dict+zeros"
        args = ([_tuple_keyed(r, keep) for r in rows],
                _tuple_keyed(target, keep))
    ok, cert = in_span(*args)
    # a member of the Z-lattice is one of the Q-span
    over_q, _ = fraction_in_span(rows, target)
    assert over_q or not ok
    if not ok:
        assert cert is None
        return
    assert len(cert) == len(rows)
    assert all(type(c) is int for c in cert)
    rebuilt = [sum(c * r[j] for c, r in zip(cert, rows))
               for j in range(len(target))]
    assert rebuilt == target


@settings(max_examples=300, deadline=None)
@given(span_problems())
def test_in_span_certificate_is_integral_exactly_on_the_lattice(problem):
    # the target is in the rows' Z-lattice iff adding it to the rows keeps
    # their rank and the product of their elementary divisors
    rows, target = problem
    ok, cert = in_span(rows, target)
    before, after = sympy_divisors(rows), sympy_divisors(rows + [target])
    on_lattice = len(before) == len(after) and prod(before) == prod(after)
    assert (ok and all(type(c) is int for c in cert)) == on_lattice


@settings(max_examples=300, deadline=None)
@given(span_problems(), st.booleans())
def test_reduce_row_stays_on_the_lattice_exactly_for_members(problem, track):
    # t == sum(coords[j] * pivot_j) + rest, rest at every pivot column is
    # a remainder smaller than the pivot, and t reduces to zero iff adding
    # it to the rows keeps their rank and the product of their elementary
    # divisors
    rows, target = problem
    pivots = eliminate(map(sparse_row, rows), track=track)
    t = sparse_row(target)
    coords, rest = reduce_row(pivots, t)
    assert t == sparse_row(target)
    assert all(type(a) is int for a in coords.values())
    rebuilt = dict(rest)
    for j, a in coords.items():
        poly_add_scaled(rebuilt, pivots[j][1], a)
    assert rebuilt == t
    assert all(abs(rest.get(c, 0)) < abs(row[c]) for c, row, _ in pivots)
    before, after = sympy_divisors(rows), sympy_divisors(rows + [target])
    on_lattice = len(before) == len(after) and prod(before) == prod(after)
    assert (not rest) == on_lattice
