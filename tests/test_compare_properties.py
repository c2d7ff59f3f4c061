"""Derandomized property: compare's comodule side equals its module side on random quadratic duals."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_coalgebras import per_basis_hom_differential

from cobarlab.coalg import extension_comodule, flatten, regular_comodule, trivial_comodule
from cobarlab.dualalg import _hom_differential, compare_theorem1, graded_dual, quadratic_algebra
from cobarlab.exactlin import GF, QQ
from cobarlab.resolve import minimal_coresolution

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
N = 3

relation = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
weights = st.lists(st.integers(-2, 2), min_size=2, max_size=2).filter(any)


@st.composite
def comodule(draw, c):
    kind = draw(st.sampled_from(("trivial", "regular", "extension")))
    if kind == "trivial":
        return trivial_comodule(c)
    if kind == "regular":
        return regular_comodule(c)
    # the degree-1 basis vectors are primitive, so any combination of them is
    primitive = [c.field.zero] * c.dim
    for t, x in zip((t for t in range(c.dim) if c.degrees[t] == 1), draw(weights)):
        primitive[t] = c.field.from_int(x)
    return extension_comodule(c, primitive)


@st.composite
def cases(draw):
    field = draw(st.sampled_from((QQ, GF(7), GF(2**31 - 1))))
    relations = draw(st.lists(relation, min_size=1, max_size=2))
    c = flatten(graded_dual(quadratic_algebra(2, relations, draw(st.integers(2, 3)), field)))
    return c, draw(comodule(c)), draw(comodule(c))


@PROPERTY
@given(cases())
def test_comodule_side_equals_module_side_and_the_per_basis_reference(case):
    c, l, m = case
    report = compare_theorem1(c, l, m, N)
    assert report.comodule_dims == report.module_dims
    assert report.ok
    res = minimal_coresolution(m, N + 1)
    vdims = res.cogenerator_dims
    nu_l = l.coaction
    for i in range(N + 1):
        args = (c, res.differentials[i], nu_l, vdims[i], vdims[i + 1])
        assert _hom_differential(*args) == per_basis_hom_differential(*args)
