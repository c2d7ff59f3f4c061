"""Derandomized property tests for seeded coresolutions in renumbered and sheared bases."""

import random
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_coalgebras import divided_line, permuted, sheared

from cobarlab.coalg import coaugmentation_filtration, flatten, symmetric_coalgebra, tensor_coalgebra, trivial_comodule
from cobarlab.exactlin import GF, QQ, Matrix
from cobarlab.resolve import (
    _cokernel_maps,
    _coradical_order,
    _one_step,
    betti_dims,
    minimal_coresolution,
    verify_coresolution,
)

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)
LENGTH = 3
BASES = {
    "sym23": lambda field: flatten(symmetric_coalgebra(2, 3, field)),
    "ten22": lambda field: flatten(tensor_coalgebra(2, 2, field)),
    "line": divided_line,
}


@lru_cache(maxsize=None)
def unseeded_dims(name, field):
    return betti_dims(minimal_coresolution(trivial_comodule(BASES[name](field)), LENGTH))


@st.composite
def bases(draw):
    """A base in a random basis: renumbered, and sheared (e_k + e_l for e_k) when drawn."""
    name = draw(st.sampled_from(sorted(BASES)))
    field = draw(st.sampled_from((QQ, GF(7))))
    c = BASES[name](field)
    c = permuted(c, draw(st.permutations(range(c.dim))))
    if draw(st.booleans()):
        positive = c.positive_indices()
        k = draw(st.sampled_from(positive))
        c = sheared(c, k, draw(st.sampled_from([l for l in positive if l != k])))
    return name, field, c


@PROPERTY
@given(bases(), st.integers(0, 2**32 - 1))
def test_seeded_coresolution_in_any_basis_keeps_dims_and_its_cokernel_maps(base, seed):
    name, field, c = base
    r = minimal_coresolution(trivial_comodule(c), LENGTH, random.Random(seed))
    assert betti_dims(r) == unseeded_dims(name, field)
    assert verify_coresolution(r)
    # the degree of e_t is the first step of the coaugmentation filtration holding it
    steps = coaugmentation_filtration(c).steps
    units = [tuple(field.one if s == t else field.zero for s in range(c.dim)) for t in range(c.dim)]
    # a unit lies in F_m when it solves F_m^T x = unit, a combination of the rows of F_m
    degree = [next(m for m, step in enumerate(steps) if step.transpose().solve(unit) is not None) for unit in units]
    order = _coradical_order(c)
    assert order == sorted(range(c.dim), key=lambda t: (-degree[t], t))
    rng = random.Random(seed)
    current = trivial_comodule(c)
    for step in range(LENGTH):
        v, emb, proj, current = _one_step(current, order, rng)
        assert emb == r.embeddings[step]
        again, section = _cokernel_maps(emb, v, order)
        assert again == proj
        assert (proj @ emb).is_zero()
        assert proj @ section == Matrix.identity(field, proj.nrows)
