"""Derandomized property tests for the block-built cobar cells and the pruned top layer, twins included."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_coalgebras import assert_pruned_sweep_is_exact, kron_cobar_diff, reference_cells, rescaled, sheared, swept_cells

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
        assert cx.diff(i) == kron_cobar_diff(c, i)


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


@PROPERTY
@given(
    st.sampled_from((QQ, GF(7))),
    st.lists(relation, min_size=0, max_size=2),
    st.integers(2, 3),
    st.integers(3, 4),
    st.sampled_from(("plain", "sheared", "rescaled")),
    st.lists(st.sampled_from((1, 2, 3, -1)), min_size=14, max_size=14),
)
def test_orbit_sweep_of_random_quadratic_duals_matches_the_unpruned_sweep(field, relations, top, imax, change, factors):
    # shearing x -> x + y and rescaling the basis keep the term graph acyclic,
    # and mostly leave no automorphism but the identity
    c = flatten(graded_dual(quadratic_algebra(2, relations, top, field)))
    if change == "sheared":
        c = sheared(c, 1, 2)
    elif change == "rescaled":
        c = rescaled(c, [field.one] + [field.from_int(x) for x in factors[: c.dim - 1]])
    assert_pruned_sweep_is_exact(lambda: build_cobar(c, imax))
