"""The cobar sweep builds the top layer on the support bound alone.

Ext^imax can be nonzero in weight W only when W = W' + w_a for a weight W'
where Ext^(imax-1) is nonzero and a positive index a.  Each case is checked
against an unpruned sweep of the same cells: Ext per cell and the table
agree, every top cell outside the bound has Ext 0 and squares to zero with
the layer below, and each top cell in the bound is either built or the twin
of a built cell under a permutation automorphism.
"""

from importlib import resources

import pytest

from helpers_coalgebras import acceptance_corpus, assert_pruned_sweep_is_exact

from cobarlab.coalg import extension_comodule, flatten, opposite, regular_comodule, trivial_comodule
from cobarlab.cobar import build_cobar, cobar_with_coefficients
from cobarlab.exactlin import GF, QQ
from cobarlab.presentation import loads_presentation


def primitive(c):
    """The sum of the degree-1 basis vectors, which are primitive."""
    return [c.field.one if d == 1 else c.field.zero for d in c.degrees]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name", sorted(acceptance_corpus()))
def test_pruned_sweep_matches_the_unpruned_sweep_on_the_corpus(name, field):
    g = acceptance_corpus(field)[name]
    c = flatten(g)
    makes = {
        "graded": lambda imax: build_cobar(g, imax),
        "flat": lambda imax: build_cobar(c, imax),
        "op": lambda imax: build_cobar(opposite(c), imax),
        "trivial": lambda imax: cobar_with_coefficients(c, trivial_comodule(c), imax),
        "regular": lambda imax: cobar_with_coefficients(c, regular_comodule(c), imax),
        "extension": lambda imax: cobar_with_coefficients(c, extension_comodule(c, primitive(c)), imax),
    }
    runs = [(imax, kind) for imax in (3, 4) for kind in makes]
    if c.dim >= 15:
        # the unpruned reference builds and ranks all 14^imax top columns
        # (times 15 with regular coefficients), seconds each at imax 4
        runs = [(3, kind) for kind in makes if kind != "regular"] + [(4, "graded"), (4, "flat")] * (field is QQ)
    skipped = 0
    for imax, kind in runs:
        skipped += assert_pruned_sweep_is_exact(lambda: makes[kind](imax))[0]
    assert skipped


def test_pruned_sweep_matches_the_unpruned_sweep_on_c3():
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    skipped = [assert_pruned_sweep_is_exact(lambda: build_cobar(c3, imax))[0] for imax in range(3, 9)]
    assert all(skipped)
