"""The bar sweep builds a top-term column only where rank must read it.

A top column is skipped when it is cleared, a pivot row of term imax at its
weight, or certified: it holds a row that no other column of its cell
holds, read off the layout without building anything.  Each case records,
for every top cell, the cleared set, the certified columns and the columns
built, and checks them against the full cell that ``bar_cells`` builds:
the three sets partition the columns, every built column is the full
column, every certified column holds a row private to it in the full cell,
and #certified + rank(built) is the plain rank of the full cell.
"""

from importlib import resources

import pytest

from helpers_coalgebras import (
    acceptance_corpus,
    assert_top_term_is_skipped_exactly,
    shifted_by_unit,
    strip_degrees,
)

from cobarlab.coalg import flatten, tensor_coalgebra
from cobarlab.dualalg import _BarComplex, bar_ext_table, dual_algebra, graded_dual
from cobarlab.exactlin import GF, QQ
from cobarlab.presentation import loads_presentation

FIELDS = [QQ, GF(7), GF(2**31 - 1)]
FIELD_IDS = ["QQ", "GF7", "GFbig"]


def bundled(name):
    return loads_presentation(resources.files("cobarlab").joinpath("data", name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", sorted(acceptance_corpus()))
def test_top_bar_term_skips_only_cleared_and_certified_columns(name, field):
    g = acceptance_corpus(field)[name]
    c = flatten(g)
    a = dual_algebra(c)
    forms = [
        (graded_dual(g), g.top_degree),
        (a, None),
        (dual_algebra(strip_degrees(c)), None),  # no degrees: the product's own grading
        (shifted_by_unit(a, c.dim - 1), None),  # degrees that do not grade: the product's own grading
    ]
    for b, jmax in forms:
        for imax in (0, 1, 2, 3):
            assert_top_term_is_skipped_exactly(b, imax, jmax)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_top_bar_term_of_c2_and_c3_to_imax_6(field):
    for degree in (1, 2):
        c = flatten(tensor_coalgebra(1, degree, field))
        for a in (dual_algebra(c), dual_algebra(strip_degrees(c))):
            for imax in range(7):
                assert_top_term_is_skipped_exactly(a, imax)


def test_top_bar_term_of_flattened_sym24_to_imax_4():
    """The top term of flattened Sym(2)<=4 at imax 4, with the cells of degree 5 and 6 whose sources have no rows."""
    c = flatten(bundled("sym2_d4.json"))
    a = dual_algebra(c)
    top = assert_top_term_is_skipped_exactly(a, 4)
    counts = [sum(len(cell[k]) for cell in top.values()) for k in range(3)]
    # cleared, certified and built, of 38,416 columns: the other 16 index cells (4, W) with no cell (5, W)
    assert counts == [2534, 18480, 17386]
    sizes, _ = _BarComplex(a).sweep(4)
    assert sum(n for (i, w), n in sizes.items() if i == 4 and (5, w) not in sizes) == 16
    low = [w for w in top if w[0] in (5, 6)]  # the degree is the first weight coordinate
    assert len(low) == 13
    for w in low:
        _, certified, built, _ = top[w]
        # every column of a block of degree >= 2 copies a row-less source, so it holds only diagonal entries
        assert built and not certified
    assert bar_ext_table(a, 4).dims() == [1, 2, 7, 17, 52]
