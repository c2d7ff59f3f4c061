"""Acceptance battery: eleven verdicts, one test and one printed line each.

The corpus is six conilpotent coalgebras with both graded and flattened
finite presentations: the dual of k[x]/x^2, the dual of k[x]/x^3, the
square-zero dual on two cogenerators, word and polynomial coalgebras on two
letters, and the graded dual of the one-relation algebra with xy = 0, all
truncated at desk scale.
"""

import math
import random

import pytest

from cobarlab.cli import main as cli_main
from cobarlab.coalg import (
    extension_comodule,
    flatten,
    opposite,
    regular_comodule,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
    validate,
)
from cobarlab.cobar import (
    CobarClass,
    build_cobar,
    class_coordinates,
    cohomology_basis,
    ext_algebra_table,
    ext_product,
    ext_table,
    reverse_tensor_vector,
)
from cobarlab.dualalg import (
    Matrix,
    bar_ext_table,
    build_initially_projective,
    compare_theorem1,
    dual_algebra,
    ext_via_initially_projective,
    free_module,
    free_resolution_as_initially_projective,
    graded_dual,
    trivial_module,
)
from cobarlab.exactlin import GF, QQ, kernel_basis
from cobarlab.resolve import betti_dims, minimal_coresolution
from cobarlab.witness import contra_report, nonrational_report
from helpers_coalgebras import acceptance_corpus, divided_line, strip_degrees

IMAX = 4


def _verdict(num, slug, ok):
    print("ACCEPTANCE %02d %s: %s" % (num, slug, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, slug)


@pytest.fixture(scope="module")
def corpus():
    members = acceptance_corpus()
    assert len(members) >= 6
    return members


@pytest.fixture(scope="module")
def corpus_finite(corpus):
    out = {}
    for name, g in corpus.items():
        c = flatten(g)
        assert validate(c).ok, name
        out[name] = c
    return out


@pytest.fixture(scope="module")
def graded_tables(corpus):
    out = {}
    for name, g in corpus.items():
        jm = min(g.top_degree, 6)
        out[name] = ext_table(build_cobar(g, IMAX, jm))
    return out


@pytest.fixture(scope="module")
def finite_tables(corpus_finite):
    return {
        name: ext_table(build_cobar(c, IMAX))
        for name, c in corpus_finite.items()
    }


def test_criterion_01_left_right_symmetry(corpus, corpus_finite, graded_tables, finite_tables):
    ok = True
    for name, g in corpus.items():
        jm = min(g.top_degree, 6)
        other = ext_table(build_cobar(opposite(g), IMAX, jm))
        ok = ok and graded_tables[name] == other
    for name, c in corpus_finite.items():
        other = ext_table(build_cobar(opposite(c), IMAX))
        ok = ok and finite_tables[name] == other
    _verdict(1, "left-right symmetry", ok)


def test_criterion_02_cobar_bar_duality(corpus, graded_tables):
    ok = True
    for name, g in corpus.items():
        jm = min(g.top_degree, 6)
        bar = bar_ext_table(graded_dual(g), IMAX, jm)
        ok = ok and graded_tables[name] == bar
    _verdict(2, "cobar-bar duality", ok)


def test_criterion_03_resolution_agreement(corpus_finite, finite_tables):
    ok = True
    for name, c in corpus_finite.items():
        k = trivial_comodule(c)
        dims = betti_dims(minimal_coresolution(k, IMAX))
        ok = ok and dims == finite_tables[name].dims()
        for seed in range(5):
            rng = random.Random(991 + seed)
            again = betti_dims(minimal_coresolution(k, IMAX, rng))
            ok = ok and again == dims
    _verdict(3, "resolution agreement", ok)


def test_criterion_04_comodule_module_comparison():
    rng = random.Random(20260816)
    ok = True
    for base in (divided_line(), flatten(symmetric_coalgebra(2, 3, QQ))):
        primitive = [QQ.zero] * base.dim
        degrees = base.degrees or tuple(range(base.dim))
        for idx in range(base.dim):
            if degrees[idx] == 1:
                primitive[idx] = QQ.from_int(rng.randrange(1, 4))
        members = (
            trivial_comodule(base),
            regular_comodule(base),
            extension_comodule(base, tuple(primitive)),
        )
        for l in members:
            for m in members:
                ok = ok and compare_theorem1(base, l, m, 3).ok
    _verdict(4, "comodule vs module Ext", ok)


def test_criterion_05_koszul_diagonal(graded_tables):
    table = graded_tables["sym24"]
    ok = table.jmax == 4
    for (i, j), value in table.entries.items():
        expect = math.comb(2, i) if i == j else 0
        ok = ok and value == expect
    _verdict(5, "Koszul diagonal", ok)


def test_criterion_06_periodicity_three_pipelines():
    c = divided_line()
    want = [1, 1, 1, 1, 1, 1]
    cobar_dims = ext_table(build_cobar(c, 5)).dims()
    resolution_dims = betti_dims(minimal_coresolution(trivial_comodule(c), 5))
    bar_dims = bar_ext_table(dual_algebra(c), 5).dims()
    ok = cobar_dims == want and resolution_dims == want and bar_dims == want
    _verdict(6, "periodicity", ok)


def test_criterion_07_ext_algebra_antiisomorphism(corpus_finite):
    c = strip_degrees(corpus_finite["square_zero"])
    cx = build_cobar(c, IMAX)
    cop = build_cobar(opposite(c), IMAX)
    maxdeg = 3
    dims, products = ext_algebra_table(cx, maxdeg)
    dims_op, products_op = ext_algebra_table(cop, maxdeg)
    ok = dims == dims_op
    d = c.dim - 1
    # factor reversal carries classes of C to classes of C^op; express the
    # images in the C^op cohomology basis, degree by degree
    matching = {}
    for i in range(1, maxdeg + 1):
        cols = []
        for cls in cohomology_basis(cx, i):
            flipped = reverse_tensor_vector(d, i, cls.vector)
            cols.append(list(class_coordinates(cop, CobarClass(i, tuple(flipped)))))
        matching[i] = cols
        if cols:
            full = Matrix.from_columns(QQ, cols, dims_op[i]).rank() == dims[i]
            ok = ok and full
    for (ia, ib), table in products.items():
        reps_a = cohomology_basis(cx, ia)
        reps_b = cohomology_basis(cx, ib)
        for k, row in enumerate(table):
            for l, coords in enumerate(row):
                mapped = [QQ.zero] * dims_op[ia + ib]
                for m, coeff in enumerate(coords):
                    for r, x in enumerate(matching[ia + ib][m]):
                        mapped[r] = QQ.add(mapped[r], QQ.mul(coeff, x))
                ta = CobarClass(ia, tuple(reverse_tensor_vector(d, ia, reps_a[k].vector)))
                tb = CobarClass(ib, tuple(reverse_tensor_vector(d, ib, reps_b[l].vector)))
                opposite_product = ext_product(cop, tb, ta)
                ok = ok and tuple(mapped) == tuple(opposite_product.coords)
    _verdict(7, "Ext algebra anti-isomorphism", ok)


def test_criterion_08_nonrational_witness():
    rep = nonrational_report(samples=200, seed=20260816)
    ok = (
        rep["module_axioms_verified"] is True
        and rep["samples"] == 200
        and rep["is_rational"] is False
        and rep["max_rational_submodule"] == [[1, 0]]
        and cli_main(["demo", "nonrational"]) == 0
    )
    _verdict(8, "non-rational module witness", ok)


def test_criterion_09_contraaction_witness():
    rep = contra_report()
    ok = (
        rep["module_trivial"] is True
        and rep["contra_nontrivial"] is True
        and rep["splitting_not_contra_linear"] is True
        and cli_main(["demo", "contra"]) == 0
    )
    _verdict(9, "non-full forgetful functor witness", ok)


def test_criterion_10_initially_projective_window():
    a = dual_algebra(flatten(tensor_coalgebra(1, 1, QQ)))
    k = trivial_module(a)
    full = free_resolution_as_initially_projective(k, 3)
    full_report = ext_via_initially_projective(full, k, 3)
    ok = all(full_report.agree) and full.projective_prefix_length == len(full.modules)
    f1 = free_module(a, 1)
    aug = Matrix.from_entries(QQ, 1, 2, [(0, 0, QQ.one)])
    times_x = a.left_action_matrix(1)
    include_socle = Matrix.from_entries(QQ, 2, 1, [(1, 0, QQ.one)])
    degraded = build_initially_projective(a, k, (f1, f1, k), aug, (times_x, include_socle))
    report = ext_via_initially_projective(degraded, k, 3)
    prefix = degraded.projective_prefix_length
    ok = ok and prefix == 2
    ok = ok and all(report.agree[: prefix + 1])
    ok = ok and not all(report.agree[prefix + 1 :])
    ok = ok and list(report.dims) != list(report.true_dims)
    _verdict(10, "initially projective window", ok)


def _random_matrix(rng, field, maxn):
    nrows = rng.randrange(1, maxn + 1)
    ncols = rng.randrange(1, maxn + 1)
    items = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.45:
                items.append((r, c, field.from_int(rng.randrange(-4, 5))))
    return Matrix.from_entries(field, nrows, ncols, items)


def test_criterion_11_substrate_properties():
    ok = True
    total = 0
    for field, seed in ((QQ, 97531), (GF(5), 24680)):
        rng = random.Random(seed)
        for _ in range(250):
            m1 = _random_matrix(rng, field, 6)
            m2 = _random_matrix(rng, field, 3)
            for m in (m1, m2):
                total += 1
                kernel = kernel_basis(m)
                ok = ok and m.rank() + kernel.dim == m.ncols
                for vec in kernel.vectors:
                    ok = ok and all(v == field.zero for v in m.apply(vec))
            ok = ok and m1.kron(m2).rank() == m1.rank() * m2.rank()
    ok = ok and total == 1000
    _verdict(11, "exact substrate properties", ok)
