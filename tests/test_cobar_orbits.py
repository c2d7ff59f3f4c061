"""The cobar sweep ranks each top cell once per orbit of the permutation automorphisms.

A permutation s of the positive basis that preserves the reduced
comultiplication, constants included, and the coaction term by term maps top
cell R onto top cell s(R) by a permutation of rows and columns.  The sweep
builds and ranks R and records each s(R) still to come as its twin, with R's
rank.  Each case is checked against an unpruned sweep of the same cells by
``assert_pruned_sweep_is_exact``, which also checks every twin as s(R)
against the structure constants.
"""

import time

import pytest

from helpers_coalgebras import (
    acceptance_corpus,
    assert_pruned_sweep_is_exact,
    rescaled,
    sheared,
    top_sweep,
)

from cobarlab.coalg import (
    extension_comodule,
    flatten,
    opposite,
    regular_comodule,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
)
from cobarlab.cobar import _AUT_NODES, _automorphisms, build_cobar, cobar_with_coefficients, ext_table
from cobarlab.exactlin import GF, QQ


def primitive(c):
    """The sum of the degree-1 basis vectors, which are primitive."""
    return [c.field.one if d == 1 else c.field.zero for d in c.degrees]


def only_combinatorial(c):
    """Flattened Sym(2) with x scaled by 2: the swap of x and y keeps every term but not every constant."""
    return rescaled(c, [c.field.from_int(2 if t == 1 else 1) for t in range(c.dim)])


def automorphisms(cx):
    return _automorphisms(*cx._int_constants)


def test_automorphisms_are_found_exactly():
    sym = flatten(symmetric_coalgebra(2, 4, QQ))
    (swap,) = automorphisms(build_cobar(sym, 3))
    assert swap[:2] == (1, 0)  # positive indices 0 and 1 are x and y
    assert len(automorphisms(build_cobar(flatten(symmetric_coalgebra(3, 3, QQ)), 3))) == 5
    assert len(automorphisms(build_cobar(flatten(symmetric_coalgebra(3, 3, GF(7))), 3))) == 5
    assert automorphisms(build_cobar(flatten(tensor_coalgebra(1, 2, QQ)), 3)) == []
    assert automorphisms(build_cobar(only_combinatorial(sym), 3)) == []
    # the trivial comodule has no reduced coaction; the regular one fixes each e_c (x) m' term
    assert automorphisms(cobar_with_coefficients(sym, trivial_comodule(sym), 3)) == [swap]
    assert automorphisms(cobar_with_coefficients(sym, extension_comodule(sym, primitive(sym)), 3)) == [swap]
    assert automorphisms(cobar_with_coefficients(sym, regular_comodule(sym), 3)) == []
    x_only = [sym.field.one if t == 1 else sym.field.zero for t in range(sym.dim)]
    assert automorphisms(cobar_with_coefficients(sym, extension_comodule(sym, x_only), 3)) == []


# twins at imax 3 and 4; every other case runs at imax 3 and has none
TWINS = {
    ("square_zero", "flat"): (2, 2),
    ("square_zero", "op"): (2, 2),
    ("square_zero", "trivial"): (2, 2),
    ("ten22", "flat"): (5, 6),
    ("ten22", "op"): (5, 6),
    ("ten22", "trivial"): (5, 6),
    ("sym24", "graded"): (2, 0),
    ("sym24", "flat"): (20, 18),
    ("sym24", "op"): (20, 18),
    ("sym24", "trivial"): (20, 18),
}


@pytest.mark.parametrize("name", sorted(acceptance_corpus()))
def test_orbit_sweep_matches_the_unpruned_sweep_on_the_corpus(name):
    g = acceptance_corpus()[name]
    c = flatten(g)
    makes = {
        "graded": lambda imax: build_cobar(g, imax),
        "flat": lambda imax: build_cobar(c, imax),
        "op": lambda imax: build_cobar(opposite(c), imax),
        "trivial": lambda imax: cobar_with_coefficients(c, trivial_comodule(c), imax),
        "regular": lambda imax: cobar_with_coefficients(c, regular_comodule(c), imax),
        "extension": lambda imax: cobar_with_coefficients(c, extension_comodule(c, primitive(c)), imax),
    }
    for kind, make in makes.items():
        want = TWINS.get((name, kind), (0,))
        got = tuple(assert_pruned_sweep_is_exact(lambda: make(imax))[1] for imax in (3, 4)[: len(want)])
        assert got == want, kind


def test_orbit_sweep_on_flattened_sym33():
    # |Aut| = 6: the orbits of the top cells have up to six members
    c = flatten(symmetric_coalgebra(3, 3, QQ))
    assert assert_pruned_sweep_is_exact(lambda: build_cobar(c, 3)) == (106, 79)
    built, twins = top_sweep(build_cobar(c, 4))
    assert (len(built), len(twins)) == (28, 90)
    assert ext_table(build_cobar(c, 4)).dims() == [1, 3, 18, 70, 352]


def test_a_swap_that_keeps_only_the_terms_is_not_used():
    # the rescaled Sym(2) has the same cells as Sym(2), but the swap of x and
    # y changes its constants, so no cell is a twin
    c = only_combinatorial(flatten(symmetric_coalgebra(2, 4, QQ)))
    for imax in (3, 4):
        assert assert_pruned_sweep_is_exact(lambda: build_cobar(c, imax))[1] == 0


def test_twin_that_does_not_match_its_representative_fails_the_sweep(monkeypatch):
    # a permutation that is not an automorphism (x <-> x^2) pairs cells of
    # different sizes; the sweep compares each twin with its representative
    c = flatten(symmetric_coalgebra(2, 4, QQ))
    bogus = (2, 1, 0) + tuple(range(3, c.dim - 1))
    monkeypatch.setattr("cobarlab.cobar._automorphisms", lambda comul, coaction: [bogus])
    with pytest.raises(AssertionError, match="does not match its representative"):
        ext_table(build_cobar(c, 4))


def test_search_stops_at_its_node_budget():
    # every one of the 9! permutations of 9 primitives with D = 0 is an
    # automorphism; the search keeps those it verified within the budget
    c = flatten(tensor_coalgebra(9, 1, QQ))
    start = time.perf_counter()
    cx = build_cobar(c, 3)
    auts = automorphisms(cx)
    assert 0 < len(auts) < _AUT_NODES
    assert ext_table(cx).dims() == [1, 9, 81, 729]
    assert time.perf_counter() - start < 1.0
    assert assert_pruned_sweep_is_exact(lambda: build_cobar(c, 3))[1]

