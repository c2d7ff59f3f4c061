"""Derandomized property tests for the block-built cobar cells and the pruned top layer."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_coalgebras import assert_pruned_sweep_is_exact, kron_cobar_diff, reference_cells, swept_cells

from cobarlab.coalg import flatten
from cobarlab.cobar import build_cobar
from cobarlab.dualalg import graded_dual, quadratic_algebra
from cobarlab.exactlin import GF, QQ

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

relation = st.lists(st.integers(-2, 2), min_size=4, max_size=4)


@PROPERTY
@given(st.sampled_from((QQ, GF(5))), st.lists(relation, min_size=1, max_size=2), st.integers(2, 3))
def test_block_cells_of_random_quadratic_duals_match_tuple_reference(field, relations, top):
    c = flatten(graded_dual(quadratic_algebra(2, relations, top, field)))
    cx = build_cobar(c, 3)
    assert swept_cells(cx) == list(reference_cells(cx))
    for i in range(3):
        assert cx.diff(i, None) == kron_cobar_diff(c, i)


@PROPERTY
@given(
    st.sampled_from((QQ, GF(7), GF(2**31 - 1))),
    st.lists(relation, min_size=1, max_size=2),
    st.integers(2, 3),
    st.integers(3, 4),
)
def test_pruned_sweep_of_random_quadratic_duals_matches_the_unpruned_sweep(field, relations, top, imax):
    c = flatten(graded_dual(quadratic_algebra(2, relations, top, field)))
    assert_pruned_sweep_is_exact(lambda: build_cobar(c, imax))
