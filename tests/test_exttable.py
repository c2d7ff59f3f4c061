"""The grading solver that the cobar and the bar pipeline share, each with its own homogeneity check."""

import pytest

from helpers_coalgebras import acceptance_corpus

import cobarlab.cobar
import cobarlab.dualalg
from cobarlab.cobar import build_cobar
from cobarlab.dualalg import _BarComplex, graded_dual
from cobarlab.exttable import finest_grading

# side -> (the module that calls finest_grading, graded coalgebra -> the input that side grades, its grading)
SIDES = {
    "cobar": (cobarlab.cobar, lambda g: g, lambda g: build_cobar(g, 2)._grading),
    "bar": (cobarlab.dualalg, graded_dual, lambda a: _BarComplex(a).weights),
}


@pytest.mark.parametrize("side", sorted(SIDES))
def test_a_skipped_equation_keeps_the_grading_or_fails_the_homogeneity_check(side, monkeypatch):
    """Solving all but one equation either finds the same weights, or weights that the dropped term breaks."""
    module, prepare, grading = SIDES[side]
    tripped = kept = 0
    for name, g in acceptance_corpus().items():
        x = prepare(g)
        seen = []
        monkeypatch.setattr(module, "finest_grading", lambda eqs, n: seen.append(eqs) or finest_grading(eqs, n))
        want = grading(x)
        (equations,) = seen
        for k in range(len(equations)):
            monkeypatch.setattr(module, "finest_grading", lambda eqs, n, k=k: finest_grading(eqs[:k] + eqs[k + 1 :], n))
            try:
                got = grading(x)
            except AssertionError as exc:
                assert "not homogeneous" in str(exc), (name, k)
                tripped += 1
            else:
                assert got == want, (name, k)
                kept += 1
    assert tripped and kept
