"""Derandomized property tests for the bar cells and the cleared bar sweep."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_coalgebras import (
    assert_top_term_is_skipped_exactly,
    bar_cell_positions,
    bar_cells,
    bar_reference,
    comul_triples,
    kron_bar_boundary,
    permuted,
    restricted_transpose,
    sheared,
    shifted_by_unit,
)

from cobarlab.coalg import flatten
from cobarlab.dualalg import _BarComplex, dual_algebra, graded_dual, quadratic_algebra
from cobarlab.exactlin import GF, QQ, Matrix

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
IMAX = 3

relation = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
algebras = (
    st.sampled_from((QQ, GF(7), GF(2**31 - 1))),
    st.lists(relation, min_size=1, max_size=2),
    st.integers(2, 3),
    st.sampled_from(("graded", "flattened", "permuted", "shifted", "sheared")),
    st.data(),
)


def _algebra(field, relations, top, form, data):
    """A random quadratic algebra, graded or as the dual of its flattened dual, renumbered, sheared or shifted by the unit; and its jmax."""
    a = quadratic_algebra(2, relations, top, field)
    if form == "graded":
        return a, top
    c = flatten(graded_dual(a))
    if form == "permuted":
        c = permuted(c, data.draw(st.permutations(range(c.dim))))
    if form == "sheared":
        # no degrees; with e_k (x) e_k in the reduced comultiplication of e_l, the new e_k is in its
        # own square, so its weight is 0, and the product's diagonal meets the copied columns
        positive = [t for t in range(c.dim) if t != c.grouplike_index]
        k = data.draw(st.sampled_from(positive))
        rows = comul_triples(c)
        squares = [t for t in positive if any(i == j == k for i, j, _ in rows[t])]
        c = sheared(c, k, data.draw(st.sampled_from(squares or [t for t in positive if t != k])))
    a = dual_algebra(c)
    if form == "shifted":
        # the augmentation is no longer a coordinate vector, so the degrees are not a weight coordinate
        a = shifted_by_unit(a, data.draw(st.integers(0, a.dim - 1)))
    return a, None


@PROPERTY
@given(*algebras)
def test_cleared_bar_ranks_equal_plain_ranks(field, relations, top, form, data):
    a, jmax = _algebra(field, relations, top, form, data)
    bar = _BarComplex(a)
    sizes, ranks = bar.sweep(IMAX, jmax)
    # every term of a graded algebra's bar complex above jmax is empty
    assert max(i for i, _ in sizes) == (IMAX + 1 if jmax is None else min(IMAX + 1, jmax))
    for (i, w), d in bar_cells(bar, IMAX + 1, jmax).items():
        if i:
            assert ranks.get((i, w), 0) == Matrix(d.field, d.nrows, d.ncols, d.entries).transpose().rank(), (i, w)


@PROPERTY
@given(*algebras)
def test_swept_cells_are_the_kronecker_boundary_restricted(field, relations, top, form, data):
    """Every cell the sweep ranks is the transposed Kronecker boundary on its positions, with no stored zero.

    In the sheared form a basis vector of weight 0 is in its own square, so
    the product's diagonal meets the copied columns and sums may cancel.
    """
    a, jmax = _algebra(field, relations, top, form, data)
    bar = _BarComplex(a)
    ref, weights = bar_reference(a, bar)
    sizes, _ = bar.sweep(IMAX, jmax)
    cells = bar_cells(bar, IMAX + 1, jmax)
    assert cells.keys() == sizes.keys()
    wholes = {i: kron_bar_boundary(ref, i) for i in range(1, IMAX + 2)}
    for (i, w), cell in cells.items():
        src = bar_cell_positions(weights, i, w)
        assert cell.nrows == sizes[(i, w)] == len(src)
        if i:
            dst = bar_cell_positions(weights, i - 1, w)
            assert cell.ncols == len(dst)
            assert all(v for col in cell.cols for v in col.values()), (i, w)
            assert cell.entries == restricted_transpose(wholes[i], dst, src), (i, w)


@PROPERTY
@given(*algebras)
def test_top_term_skips_only_cleared_and_certified_columns(field, relations, top, form, data):
    """The top term builds every column but the cleared and the certified ones, and its ranks are exact."""
    a, jmax = _algebra(field, relations, top, form, data)
    assert_top_term_is_skipped_exactly(a, IMAX, jmax)
