"""Property tests: the pivots of the sparse elimination, exact rank against
Fraction elimination, the Smith form against sympy and span membership
against dense Fraction elimination, on random small integer matrices with
and without unit entries, with repeated and zero rows."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from dpinv.backend import (bareiss_rank, eliminate,  # noqa: E402
                           poly_add_scaled, sparse_row)
from dpinv.exactla import ExactMatrix, in_span  # noqa: E402
from test_exactla import fraction_gauss_rank, fraction_in_span  # noqa: E402

# entries without +-1 leave the whole matrix to the dense remainder loops
NO_UNITS = st.sampled_from([0, 2, -2, 3, -3, 6, -6])


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = draw(st.sampled_from([st.integers(-6, 6), NO_UNITS]))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    copies = draw(st.lists(st.sampled_from(range(nrows)), max_size=2))
    return rows + [list(rows[i]) for i in copies]


@settings(max_examples=300, deadline=None)
@given(matrices(), st.booleans())
def test_eliminate_pivots_are_tracked_echelon_rows(rows, units_only):
    pivots, rest = eliminate(map(sparse_row, rows), track=True,
                             units_only=units_only)
    cols = [c for c, _, _ in pivots]
    for n, (c, row, combo) in enumerate(pivots):
        rebuilt = {}
        for i, x in combo.items():
            poly_add_scaled(rebuilt, sparse_row(rows[i]), x)
        assert rebuilt == row
        assert row[c] and not any(k in row for k in cols[:n])
    if units_only:
        assert all(row[c] in (1, -1) for c, row, _ in pivots)
        assert not any(v in (1, -1) for r in rest for v in r.values())
        assert not any(k in r for r in rest for k in cols)
    else:
        assert rest == [] and len(pivots) == fraction_gauss_rank(rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_fraction_gauss(rows):
    assert bareiss_rank(rows) == fraction_gauss_rank(rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_smith_matches_sympy(rows):
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    expected = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
    assert ExactMatrix(rows).smith_normal_form() == expected


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
    expected, _ = fraction_in_span(rows, target)
    assert ok == expected
    if not ok:
        assert cert is None
        return
    assert len(cert) == len(rows)
    assert all(type(c) in (int, Fraction) for c in cert)
    rebuilt = [sum(c * r[j] for c, r in zip(cert, rows))
               for j in range(len(target))]
    assert rebuilt == target
