"""The cell layouts alone give each sweep's cell sizes.

``exttable.layouts`` lays out the cells of both pipelines without building an
entry.  Over the acceptance corpus, graded and flattened, its sizes must
equal the sizes each sweep records: every cobar cell, the top cells that the
support bound or the orbit skip leaves unbuilt included, and every nonzero
bar cell.
"""

import pytest

from helpers_coalgebras import acceptance_corpus, top_sweep

from cobarlab.coalg import flatten
from cobarlab.cobar import build_cobar
from cobarlab.dualalg import _BarComplex, dual_algebra, graded_dual
from cobarlab.exactlin import GF, QQ
from cobarlab.exttable import layouts

IMAX = 4
CASES = [(name, form) for name in sorted(acceptance_corpus()) for form in ("graded", "flat")]


def layout_sizes(base, factors, last, jmax):
    """{(i, W): dim} for the cells of layers 0..last, from the layouts alone."""
    lower = list(layouts(base, factors, last, jmax))[-1][0]
    assert len(lower) == last + 1
    return {(i, w): n for i, layer in enumerate(lower) for w, (n, _) in layer.items()}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name, form", CASES)
def test_cobar_layouts_give_the_swept_sizes(name, form, field):
    g = acceptance_corpus(field)[name]
    cx = build_cobar(g if form == "graded" else flatten(g), IMAX)
    wc, wm = cx._grading
    base = {}
    for w in wm:
        base.setdefault(w, [0, {}])[0] += 1
    sizes = layout_sizes(base, [(wa, 1) for wa in wc], IMAX, cx.jmax)
    built, _ = top_sweep(cx)
    assert sizes == cx._dims
    if (name, form) == ("sym24", "flat"):  # the sweep left top cells unbuilt, by the bound or as twins
        assert {w for i, w in cx._dims if i == IMAX} - built


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("name, form", CASES)
def test_bar_layouts_give_the_swept_sizes(name, form, field):
    g = acceptance_corpus(field)[name]
    a, jmax = (graded_dual(g), g.top_degree) if form == "graded" else (dual_algebra(flatten(g)), None)
    bar = _BarComplex(a)
    zero, factors, _ = bar.grading
    sizes = layout_sizes({zero: [1, {}]}, factors, IMAX + 1, jmax)
    swept, _ = bar.sweep(IMAX, jmax)
    assert sizes == swept


def test_layouts_share_ints_only_for_the_kept_layers():
    """``ints`` reaches the largest cell of layers 0..min(i, last - 1), and the last layer's largest cell is past it."""
    bar = _BarComplex(dual_algebra(flatten(acceptance_corpus()["sym24"])))
    zero, factors, _ = bar.grading
    last = IMAX + 1
    for i, (lower, uses, ints) in enumerate(layouts({zero: [1, {}]}, factors, last)):
        kept = max(n for layer in lower[: min(i, last - 1) + 1] for n, _ in layer.values())
        assert ints == list(range(kept)), i
        assert bool(uses) == (0 < i < last), i  # layer 0 has no blocks
    assert max(n for n, _ in lower[last].values()) > len(ints)
