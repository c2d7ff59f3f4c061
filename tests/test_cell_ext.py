"""The bar side and the cobar side agree on Ext cell by cell, not only in total.

Each side splits its complex by the finest grading that its own structure
constants respect: the cobar side reads it off the reduced comultiplication of
C, the bar side off the reduced product of the dual algebra.  Neither reads
the other's weights.  Dual basis indices correspond, so a bar weight is sent
to a cobar weight through the basis: a cell is named on the cobar side by the
sum of the cobar weights of the basis indices of any tensor in it.  Totals can
agree while two cells of one term trade rank; the cells cannot.
"""

import pytest

from helpers_coalgebras import acceptance_corpus

from cobarlab.coalg import flatten
from cobarlab.cobar import build_cobar
from cobarlab.dualalg import _BarComplex, dual_algebra, graded_dual
from cobarlab.exactlin import GF, QQ
from cobarlab.exttable import layouts

IMAX = 4
CASES = [(name, form) for name in sorted(acceptance_corpus()) for form in ("graded", "flat")]


def cobar_names(bar, grading, imax, jmax):
    """{(i, W): the cobar weight of bar cell (i, W)}, for the bar cells of terms 0..imax.

    ``grading`` is the cobar grading (wc, wm): the cobar's layer 0 is the
    comodule index of k, whose weight wm[0] every cobar cell carries.  Every
    basis vector of a bar factor must have one cobar weight, and every block
    of a cell must give the cell the same cobar weight.
    """
    wc, (base,) = grading
    zero, factors, _ = bar.grading
    named = {}
    for k, w in enumerate(bar.weights):
        assert named.setdefault(w, wc[k]) == wc[k], "one bar weight, two cobar weights"
    lower = list(layouts({zero: [1, {}]}, factors, imax, jmax))[-1][0]
    out = {(0, zero): base}
    for i in range(1, imax + 1):
        for w, (_, blocks) in lower[i].items():
            names = {tuple(map(sum, zip(named[factors[a][0]], out[(i - 1, src)]))) for a, (_, src) in blocks.items()}
            assert len(names) == 1, "the blocks of bar cell (%d, %r) have different cobar weights" % (i, w)
            out[(i, w)] = names.pop()
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name, form", CASES)
def test_bar_ext_per_weight_cell_is_the_cobar_ext(name, form, field):
    g = acceptance_corpus(field)[name]
    c = flatten(g)
    a, jmax = (graded_dual(g), g.top_degree) if form == "graded" else (dual_algebra(c), None)
    cx = build_cobar(g if form == "graded" else c, IMAX)
    bar = _BarComplex(a)
    wc, _ = cx._grading
    assert len(bar.weights) == len(wc) == c.dim - 1
    if form == "graded":
        assert [w[0] for w in bar.weights] == [w[0] for w in wc] == list(c.degrees[1:])

    sizes, ranks = bar.sweep(IMAX, jmax)
    bar_ext = {(i, w): n - ranks.get((i, w), 0) - ranks.get((i + 1, w), 0) for (i, w), n in sizes.items() if i <= IMAX}
    cx._sweep()
    cobar_ext = {(i, w): n - cx._ranks[(i, w)] - cx._ranks.get((i - 1, w), 0) for (i, w), n in cx._dims.items()}

    names = cobar_names(bar, cx._grading, IMAX, jmax)
    assert len({(i, v) for (i, _), v in names.items()}) == len(names)  # no two bar cells of a term share a cobar cell
    assert {(i, names[(i, w)]): e for (i, w), e in bar_ext.items()} == cobar_ext
