"""Derandomized property tests for the cleared bar sweep."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_coalgebras import bar_boundary, permuted, shifted_by_unit

from cobarlab.coalg import flatten
from cobarlab.dualalg import _BarComplex, dual_algebra, graded_dual, quadratic_algebra
from cobarlab.exactlin import GF, QQ

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
IMAX = 3

relation = st.lists(st.integers(-2, 2), min_size=4, max_size=4)


@PROPERTY
@given(
    st.sampled_from((QQ, GF(7), GF(2**31 - 1))),
    st.lists(relation, min_size=1, max_size=2),
    st.integers(2, 3),
    st.sampled_from(("graded", "flattened", "permuted", "shifted")),
    st.data(),
)
def test_cleared_bar_ranks_equal_plain_ranks(field, relations, top, form, data):
    a = quadratic_algebra(2, relations, top, field)
    jmax = top
    if form != "graded":
        c = flatten(graded_dual(a))
        if form == "permuted":
            c = permuted(c, data.draw(st.permutations(range(c.dim))))
        a = dual_algebra(c)
        jmax = None
        if form == "shifted":
            # the augmentation is no longer a coordinate vector: one cell per term
            a = shifted_by_unit(a, data.draw(st.integers(0, a.dim - 1)))
    bar = _BarComplex(a)
    sizes, ranks = bar.sweep(IMAX, jmax)
    assert max(i for i, _ in sizes) == IMAX + 1
    for i, w in sizes:
        if i:
            assert ranks.get((i, w), 0) == bar_boundary(bar, i, w).rank(), (i, w)
