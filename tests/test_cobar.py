import random
from fractions import Fraction
from importlib import resources

import pytest

from helpers_coalgebras import (
    WholeTermProducts,
    acceptance_corpus,
    built_top_weights,
    divided_line,
    dual_numbers_dual,
    kron_cobar_diff,
    non_coassociative,
    path_dual,
    reference_cells,
    reference_whole_diff,
    rescaled,
    reverse_tensor_vector,
    reversed_tensors,
    sheared,
    sparse_tensor_vector,
    strip_degrees,
    support_bound,
    swept_cells,
    top_sweep,
    unpruned_sweep,
)

from cobarlab.coalg import (
    extension_comodule,
    flatten,
    opposite,
    regular_comodule,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
    validate,
    validate_comodule,
)
from cobarlab.cobar import (
    CobarClass,
    CobarComplex,
    build_cobar,
    class_coordinates,
    cobar_with_coefficients,
    cohomology_basis,
    ext_algebra_table,
    ext_product,
    ext_table,
)
from cobarlab.dualalg import quadratic_algebra
from cobarlab.exactlin import QQ, GF, ColumnMatrix, Matrix
from cobarlab.presentation import loads_presentation


def test_square_zero_dual_table_is_all_ones():
    cx = build_cobar(dual_numbers_dual(), 6)
    table = ext_table(cx)
    assert table.dims() == [1, 1, 1, 1, 1, 1, 1]


def test_divided_line_table_is_all_ones():
    cx = build_cobar(divided_line(), 5)
    table = ext_table(cx)
    assert table.dims() == [1, 1, 1, 1, 1, 1]


def test_differential_squares_to_zero_by_hand():
    c = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    cx = build_cobar(c, 3)
    for i in range(3):
        prod = cx.diff(i + 1) @ cx.diff(i)
        assert prod.is_zero()


def test_symmetric_truncation_window_is_exterior():
    g = symmetric_coalgebra(2, 4, QQ)
    table = ext_table(build_cobar(g, 4, 4))
    for i in range(5):
        for j in range(5):
            want = {(0, 0): 1, (1, 1): 2, (2, 2): 1}.get((i, j), 0)
            assert table.entries[(i, j)] == want


def test_tensor_truncation_window_has_generators_only():
    g = tensor_coalgebra(2, 3, QQ)
    cx = build_cobar(g, 3, 3)
    table = ext_table(cx)
    assert sum(n for (i, w), n in cx._dims.items() if (i, w[0]) == (2, 3)) == 16  # the 2-tensors of degree 3
    for (i, j), v in table.entries.items():
        want = 1 if (i, j) == (0, 0) else (2 if (i, j) == (1, 1) else 0)
        assert v == want


def test_truncation_stability_of_graded_tables():
    t3 = ext_table(build_cobar(tensor_coalgebra(2, 3, QQ), 3, 3))
    t4 = ext_table(build_cobar(tensor_coalgebra(2, 4, QQ), 3, 3))
    assert t3 == t4
    s3 = ext_table(build_cobar(symmetric_coalgebra(2, 3, QQ), 3, 3))
    s4 = ext_table(build_cobar(symmetric_coalgebra(2, 4, QQ), 3, 3))
    assert s3 == s4


def test_jmax_beyond_truncation_rejected():
    g = tensor_coalgebra(2, 3, QQ)
    with pytest.raises(ValueError):
        build_cobar(g, 2, 4)


def test_jmax_rejected_for_finite_input():
    with pytest.raises(ValueError):
        build_cobar(dual_numbers_dual(), 2, 2)


def test_split_and_plain_finite_tables_agree():
    flat = flatten(tensor_coalgebra(2, 2, QQ))
    split_cx = build_cobar(flat, 3)
    plain_cx = build_cobar(strip_degrees(flat), 3)
    assert ext_table(split_cx) == ext_table(plain_cx)
    # a second call reads the ranks kept from the first sweep
    assert ext_table(split_cx) == ext_table(plain_cx)


def test_flat_symmetric_table_prefix():
    flat = flatten(symmetric_coalgebra(2, 4, QQ))
    table = ext_table(build_cobar(flat, 3))
    assert table.dims() == [1, 2, 7, 17]


def test_coefficients_in_cofree_comodule_vanish_above_zero():
    c = dual_numbers_dual()
    cx = cobar_with_coefficients(c, regular_comodule(c), 2)
    assert ext_table(cx).dims() == [1, 0, 0]


def test_coefficients_in_extension_comodule():
    c = divided_line()
    m = extension_comodule(c, (QQ.zero, QQ.one, QQ.zero))
    cx = cobar_with_coefficients(c, m, 2)
    assert ext_table(cx).dims()[:2] == [1, 1]


def test_trivial_coefficients_match_plain_complex():
    from cobarlab.coalg import trivial_comodule

    c = divided_line()
    with_k = ext_table(cobar_with_coefficients(c, trivial_comodule(c), 3))
    plain = ext_table(build_cobar(c, 3))
    assert with_k.dims() == plain.dims()


def test_square_zero_dual_class_is_not_nilpotent():
    cx = build_cobar(dual_numbers_dual(), 4)
    (xi,) = cohomology_basis(cx, 1)
    sq = ext_product(cx, xi, xi)
    assert any(v != QQ.zero for v in sq.coords)
    cube = ext_product(cx, sq, xi)
    assert any(v != QQ.zero for v in cube.coords)


def test_divided_line_class_squares_to_zero():
    cx = build_cobar(divided_line(), 4)
    (xi,) = cohomology_basis(cx, 1)
    sq = ext_product(cx, xi, xi)
    assert all(v == QQ.zero for v in sq.coords)
    assert sq.vector == {}  # the canonical vector of the zero class


def test_unit_class_is_neutral():
    cx = build_cobar(strip_degrees(flatten(tensor_coalgebra(2, 2, QQ))), 3)
    (unit,) = cohomology_basis(cx, 0)
    for i in (1, 2):
        for cls in cohomology_basis(cx, i):
            left = ext_product(cx, unit, cls)
            right = ext_product(cx, cls, unit)
            assert left.coords == class_coordinates(cx, cls)
            assert right.coords == class_coordinates(cx, cls)


def test_product_vector_is_concatenation():
    cx = build_cobar(dual_numbers_dual(), 3)
    a = CobarClass(1, {(0,): QQ.from_int(2)})
    b = CobarClass(2, {(0, 0): QQ.from_int(3)})
    product = ext_product(cx, a, b)
    assert product.coords == (QQ.from_int(6),)
    assert product.vector == {(0, 0, 0): QQ.from_int(6)}


def test_opposite_has_same_table_and_reversal_carries_cocycles():
    flat = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    op = opposite(flat)
    cx = build_cobar(flat, 3)
    cxop = build_cobar(op, 3)
    assert ext_table(cx) == ext_table(cxop)
    for i in (1, 2, 3):
        reps = cohomology_basis(cxop, i)
        coords = [class_coordinates(cx, CobarClass(i, reversed_tensors(r.vector))) for r in reps]
        seen = {tuple(v) for v in coords}
        assert len(seen) == len(reps)
        assert all(any(x != QQ.zero for x in v) for v in coords)


def test_reversal_is_an_involution():
    rng = random.Random(20260816)
    d, deg = 3, 3
    vec = tuple(QQ.from_int(rng.randrange(-4, 5)) for _ in range(d**deg))
    assert reverse_tensor_vector(d, deg, reverse_tensor_vector(d, deg, vec)) == vec
    # on sparse vectors, reversing the factors of an index reverses the tuple
    flipped = sparse_tensor_vector(d, deg, reverse_tensor_vector(d, deg, vec))
    assert flipped == reversed_tensors(sparse_tensor_vector(d, deg, vec))


def test_reversal_antihomomorphism_on_classes():
    flat = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    op = opposite(flat)
    cx = build_cobar(flat, 3)
    cxop = build_cobar(op, 3)

    def transport(cls):
        return CobarClass(cls.degree, reversed_tensors(cls.vector))

    for a in cohomology_basis(cxop, 1):
        for b in cohomology_basis(cxop, 1):
            ab = ext_product(cxop, a, b)
            lhs = class_coordinates(cx, transport(ab))
            rhs = ext_product(cx, transport(b), transport(a))
            assert lhs == rhs.coords


def _product_corpus(field):
    """The graded acceptance corpus, whose ten22 is T(2)<=2, and Sym(2)<=3."""
    return {**acceptance_corpus(field), "sym23": symmetric_coalgebra(2, 3, field)}


def _whole_term_inputs():
    cases = [pytest.param(divided_line(GF(5)), id="divided_line-GF5")]
    for field, label in ((QQ, "QQ"), (GF(7), "GF7")):
        cases += [pytest.param(flatten(g), id="%s-%s" % (name, label)) for name, g in _product_corpus(field).items()]
    return cases


@pytest.mark.parametrize("c", _whole_term_inputs())
def test_products_match_the_whole_term_path(c):
    maxdeg, d = 3, c.dim - 1
    cx = build_cobar(c, maxdeg)
    ref = WholeTermProducts(build_cobar(c, maxdeg))
    f = c.field
    dims, products = ext_algebra_table(cx, maxdeg)
    assert dims == [len(ref.basis(i)) for i in range(maxdeg + 1)]
    assert set(products) == {(a, b) for a in range(1, maxdeg) for b in range(1, maxdeg + 1 - a)}
    for i in range(maxdeg + 1):
        basis = cohomology_basis(cx, i)
        assert [r.vector for r in basis] == [sparse_tensor_vector(d, i, v) for v in ref.basis(i)]
        # basis vector k with coefficient k + 1, plus the coboundary of the all-ones cochain
        vec = cx.diff(i - 1).apply((f.one,) * cx.diff(i - 1).ncols) if i else (f.zero,)
        for k, rep in enumerate(ref.basis(i)):
            vec = tuple(f.add(x, f.mul(f.from_int(k + 1), y)) for x, y in zip(vec, rep))
        want = ref.coordinates(i, vec)
        assert want == tuple(f.from_int(k + 1) for k in range(dims[i]))
        assert class_coordinates(cx, CobarClass(i, sparse_tensor_vector(d, i, vec))) == want
    for (ia, ib), table in products.items():
        for k, a in enumerate(cohomology_basis(cx, ia)):
            for l, b in enumerate(cohomology_basis(cx, ib)):
                vec, coords = ref.product(ia, ref.basis(ia)[k], ib, ref.basis(ib)[l])
                got = ext_product(cx, a, b)
                assert (table[k][l], got.coords, got.vector) == (coords, coords, sparse_tensor_vector(d, ia + ib, vec))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_ext1_generates_the_quadratic_dual(field):
    # Loefwall (LNM 1183, 1986): Ext^1 generates the quadratic dual of the quadratic part of C*,
    # the free algebra on C_1 modulo the image of the (1, 1) component of the comultiplication of C_2
    want = {
        "c2": (1, 1, 1, 1),
        "c3": (1, 1, 0, 0),
        "square_zero": (1, 2, 4, 8),
        "ten22": (1, 2, 0, 0),
        "sym24": (1, 2, 1, 0),
        "quad_dual": (1, 2, 1, 0),
        "sym23": (1, 2, 1, 0),
    }
    for name, g in _product_corpus(field).items():
        relations = g.component(2, 1, 1).columns() if g.top_degree >= 2 else []
        assert quadratic_algebra(g.dims[1], relations, 3, field).dims == want[name], name
        cx = build_cobar(flatten(g), 3)
        ones, level, dims = cohomology_basis(cx, 1), cohomology_basis(cx, 0), []
        for i in range(4):
            if i:
                level = [ext_product(cx, x, a) for x in level for a in ones]  # the i-fold products
            rows = [list(x.coords) if i else [field.one] for x in level]
            dims.append(Matrix.from_rows(field, rows, len(cohomology_basis(cx, i))).rank())
        assert tuple(dims) == want[name], name


def test_mod_p_table_of_divided_line():
    table = ext_table(build_cobar(divided_line(GF(5)), 4))
    assert table.dims() == [1, 1, 1, 1, 1]


def test_ext_algebra_table_shape():
    cx = build_cobar(dual_numbers_dual(), 4)
    dims, products = ext_algebra_table(cx, 3)
    assert dims == [1, 1, 1, 1]
    assert products[(1, 2)][0][0] == (QQ.one,) or products[(1, 2)][0][0] == (QQ.from_int(-1),)


def test_graded_table_to_json_roundtrip_fields():
    g = tensor_coalgebra(2, 2, QQ)
    table = ext_table(build_cobar(g, 2, 2))
    payload = table.to_json()
    assert payload["kind"] == "graded"
    assert payload["imax"] == 2
    assert payload["jmax"] == 2
    assert [1, 1, 2] in [[i, j, v] for i, j, v in payload["entries"] if v]


def test_whole_term_differential_matches_kron_reference():
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    ten = flatten(tensor_coalgebra(2, 2, QQ))
    halves = rescaled(divided_line(), (QQ.one, Fraction(1, 3), Fraction(1, 2)))  # x2 -> (9/2) x1 (x) x1
    for c in (divided_line(), divided_line(GF(5)), ten, opposite(ten), c3, halves):
        cx = build_cobar(c, 3)
        for i in range(4):
            assert cx.diff(i) == kron_cobar_diff(c, i)


def test_coefficient_differential_matches_kron_reference():
    c = divided_line()
    extension = extension_comodule(c, (QQ.zero, QQ.one, QQ.zero))
    for m in (trivial_comodule(c), regular_comodule(c), extension):
        cx = cobar_with_coefficients(c, m, 3)
        for i in range(4):
            assert cx.diff(i) == kron_cobar_diff(c, i, m)


def test_non_coassociative_input_fails_the_square_check():
    # at scale 1/2 the sweep squares 2 * d, and 4 * d^2 must still fail
    # from imax 3 on the top layer is built on the support bound alone, and
    # the full layer 2 check must still catch the defect
    for scale in (QQ.one, Fraction(1, 2)):
        for imax in (2, 3, 4):
            with pytest.raises(AssertionError, match="square to zero"):
                ext_table(build_cobar(non_coassociative(scale), imax))


def test_square_check_catches_a_fault_deep_in_the_sweep(monkeypatch):
    # the sweep multiplies d_i only by the pivot columns of d_(i-1), which
    # span its image; one changed entry of d_i, in any column that image
    # reaches, makes the whole product nonzero, so those columns must see it.
    # The fault goes into a top cell that the sweep builds: the others lie
    # outside the support bound and are never built
    raw = CobarComplex._cells
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    cases = [(c3, 4), (flatten(symmetric_coalgebra(2, 3, QQ)), 3), (flatten(symmetric_coalgebra(2, 3, GF(7))), 3)]
    for c, imax, built in [(c, imax, built_top_weights(build_cobar(c, imax))) for c, imax in cases]:
        cx = build_cobar(c, imax)
        cells = {(i, w): d for i, w, _, d in raw(cx, cx._grading, cx._int_constants, imax, cx.jmax)}
        w = next(
            w
            for i, w in cells
            if i == imax and w in built and cells[i, w].nrows and (i - 1, w) in cells and cells[i - 1, w].nnz()
        )
        reached = sorted({r for col in cells[imax - 1, w].cols for r in col})
        for fault in reached:

            def perturbed(self, *args, fault=fault, **kwargs):
                for i, v, n, d in raw(self, *args, **kwargs):
                    if (i, v) == (imax - 1, w):
                        before = d
                    if (i, v) == (imax, w):
                        col = d.cols[fault]
                        col[0] = self.field.add(col[0], col[0]) if col.get(0) else 1
                        assert not (d @ before).is_zero()
                    yield i, v, n, d

            monkeypatch.setattr(CobarComplex, "_cells", perturbed)
            with pytest.raises(AssertionError) as info:
                ext_table(build_cobar(c, imax))
            assert str(info.value) == "cobar differential does not square to zero at cell (%d,%r)" % (imax - 1, w)


def test_rescaled_basis_with_fractional_constants_keeps_the_ext_table():
    rng = random.Random(20260817)
    for c, imax in ((divided_line(), 5), (flatten(tensor_coalgebra(2, 2, QQ)), 4), (flatten(symmetric_coalgebra(2, 3, QQ)), 3)):
        factors = [
            QQ.one if t == c.grouplike_index else Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(2, 9))
            for t in range(c.dim)
        ]
        r = rescaled(c, factors)
        assert validate(r).ok
        assert any(v.denominator > 1 for terms in r.reduced_comul() for _, _, v in terms)
        assert ext_table(build_cobar(r, imax)) == ext_table(build_cobar(c, imax))


def test_cells_with_negated_tables_match_per_entry_negation():
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    for c, imax in ((c3, 6), (flatten(symmetric_coalgebra(2, 3, QQ)), 3), (flatten(symmetric_coalgebra(2, 3, GF(7))), 3)):
        cx = build_cobar(c, imax)
        for (*cell, got), (*ref, want) in zip(swept_cells(cx), reference_cells(cx), strict=True):
            assert cell == ref
            assert got == want
            assert all(type(got[k]) is type(v) for k, v in want.items())
        for i in range(imax + 1):
            assert cx.diff(i).entries == reference_whole_diff(cx, i)


def _block_corpus():
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    sym3 = flatten(symmetric_coalgebra(2, 3, QQ))
    ten = flatten(tensor_coalgebra(2, 2, QQ))
    line = divided_line()
    factors = [QQ.one if t == sym3.grouplike_index else Fraction((-1) ** t * (t + 2), 2 * t + 1) for t in range(sym3.dim)]
    return [
        build_cobar(c3, 7),
        build_cobar(sym3, 3),
        build_cobar(symmetric_coalgebra(2, 4, QQ), 3),
        build_cobar(symmetric_coalgebra(2, 4, QQ), 3, 2),
        build_cobar(opposite(sym3), 3),
        build_cobar(rescaled(sym3, factors), 3),
        build_cobar(flatten(symmetric_coalgebra(2, 3, GF(7))), 3),
        build_cobar(flatten(symmetric_coalgebra(2, 3, GF(2**31 - 1))), 3),
        cobar_with_coefficients(ten, regular_comodule(ten), 3),
        cobar_with_coefficients(line, extension_comodule(line, (QQ.zero, QQ.one, QQ.zero)), 4),
        cobar_with_coefficients(line, regular_comodule(line), 4),
    ]


def test_block_cells_match_tuple_reference():
    for cx in _block_corpus():
        assert swept_cells(cx) == list(reference_cells(cx))


def test_sheared_basis_cells_cancel_on_the_diagonal():
    # e1 -> e1 + e2 in the divided line: the reduced comultiplication of e1
    # holds e1 (x) e1, so its diagonal meets the negated copy of d
    for field in (QQ, GF(5)):
        line = divided_line(field)
        c = sheared(line, 1, 2)
        assert validate(c).ok
        cx = build_cobar(c, 5)
        assert any(p == q == 0 for p, q, _ in cx._comul[0])
        assert swept_cells(cx) == list(reference_cells(cx))
        for i in range(4):
            assert cx.diff(i) == kron_cobar_diff(c, i)
        assert ext_table(cx) == ext_table(build_cobar(line, 5))
        m = extension_comodule(c, (field.zero, field.one, field.neg(field.one)))  # the old e1
        assert validate_comodule(m).ok
        mx = cobar_with_coefficients(c, m, 3)
        assert swept_cells(mx) == list(reference_cells(mx))


def test_invalid_coefficient_comodule_is_refused_with_its_failed_flag():
    line = divided_line()
    with pytest.raises(ValueError, match="coassociative"):
        cobar_with_coefficients(line, extension_comodule(line, (0, 0, 1)), 3)


def test_product_table_builds_the_weight_cells_in_one_pass(monkeypatch):
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    checks = []
    raw = CobarComplex._cells

    def counted(self, grading, tables, *args, **kwargs):
        # both passes split by the weight grading; the integer constants are the checked sweep's
        checks.append((grading is self._grading, tables is self._int_constants))
        return raw(self, grading, tables, *args, **kwargs)

    monkeypatch.setattr(CobarComplex, "_cells", counted)
    dims, products = ext_algebra_table(build_cobar(c3, 8), 8)
    # the checked sweep, then one pass over the weight cells with the true constants
    assert checks == [(True, True), (True, False)]
    assert dims == [1] * 9
    # the table the per-call rebuild gave: odd times odd is zero
    assert products == {(a, b): [[(0 if a % 2 and b % 2 else 1,)]] for a in range(1, 8) for b in range(1, 9 - a)}


@pytest.mark.parametrize(
    "call",
    [
        lambda cx, i: cohomology_basis(cx, i),
        lambda cx, i: class_coordinates(cx, CobarClass(i, {})),
        lambda cx, i: ext_product(cx, CobarClass(i, {}), CobarClass(0, {(): QQ.one})),
        lambda cx, i: ext_product(cx, CobarClass(0, {(): QQ.one}), CobarClass(i, {})),
        lambda cx, i: ext_product(cx, CobarClass(2, {}), CobarClass(i - 2, {})),  # at 4 and 5 both factors fit
        lambda cx, i: ext_algebra_table(cx, i),
    ],
    ids=["cohomology_basis", "class_coordinates", "ext_product_left", "ext_product_right", "ext_product_sum", "ext_algebra_table"],
)
@pytest.mark.parametrize("degree", [-1, 4, 5])
def test_product_entry_points_refuse_degrees_outside_the_window(call, degree):
    cx = build_cobar(divided_line(), 3)
    with pytest.raises(ValueError, match="^degree beyond the built window$"):
        call(cx, degree)


def test_whole_term_diff_stops_at_the_built_window():
    cx = build_cobar(divided_line(), 2)
    assert cx.diff(-1) == Matrix.zeros(QQ, 0, 0)
    with pytest.raises(ValueError, match="beyond the built window"):
        cx.diff(3)


def test_whole_term_pass_is_closed_once_the_top_term_is_built():
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    cx = build_cobar(c3, 4)
    low = cx.diff(2)
    built, cells = cx._whole
    assert cells.gi_frame is not None  # suspended: a higher term resumes it
    top = cx.diff(4)
    assert cells.gi_frame is None  # closed: it keeps no cell of the top term
    assert type(low) is type(top) is Matrix
    for i in range(5):
        assert cx.diff(i) is built[i]
        assert cx.diff(i) == kron_cobar_diff(c3, i)


def test_cleared_cell_ranks_match_whole_term_ranks():
    # the sweep ranks each cell on the complement of the last layer's pivot
    # rows; the plain rank of each whole term must give the same table
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    ten = flatten(tensor_coalgebra(2, 2, QQ))
    cases = [
        build_cobar(flatten(symmetric_coalgebra(2, 3, QQ)), 3),
        build_cobar(c3, 10),
        build_cobar(ten, 3),
        build_cobar(opposite(ten), 3),
        build_cobar(divided_line(GF(5)), 5),
        cobar_with_coefficients(ten, regular_comodule(ten), 3),
    ]
    for cx in cases:
        ranks = [cx.diff(i).rank() for i in range(cx.imax + 1)]
        expected = [cx.diff(i).ncols - ranks[i] - (ranks[i - 1] if i else 0) for i in range(cx.imax + 1)]
        assert ext_table(cx).dims() == expected


def test_top_layer_is_ranked_without_pivots(monkeypatch):
    # pivot rows clear the next layer and pivot columns feed its square
    # check; no layer follows imax, so its cells must not ask for pivots,
    # and the table must be the one that ranking every layer with pivots gives.
    # Regular coefficients are injective: Ext^(>= 1) = 0, so the support
    # bound is empty and no top cell is built
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    ten = flatten(tensor_coalgebra(2, 2, QQ))
    cases = [
        (lambda: build_cobar(c3, 6), True),
        (lambda: build_cobar(flatten(symmetric_coalgebra(2, 3, QQ)), 3), True),
        (lambda: build_cobar(symmetric_coalgebra(2, 3, QQ), 3), True),
        (lambda: cobar_with_coefficients(ten, regular_comodule(ten), 3), False),
    ]
    raw_cells, raw_rank = CobarComplex._cells, ColumnMatrix.rank

    def with_pivots(self, cleared=(), pivots=False):
        found = raw_rank(self, cleared, True)
        return found if pivots else found[0]

    for make, builds_top in cases:
        with monkeypatch.context() as m:
            m.setattr(ColumnMatrix, "rank", with_pivots)
            expected = ext_table(make())
        calls, layer = [], [None]

        def cells(self, *args, **kwargs):
            for i, w, n, d in raw_cells(self, *args, **kwargs):
                layer[0] = i
                yield i, w, n, d

        def rank(self, cleared=(), pivots=False):
            calls.append((layer[0], pivots, len(cleared)))
            return raw_rank(self, cleared, pivots)

        with monkeypatch.context() as m:
            m.setattr(CobarComplex, "_cells", cells)
            m.setattr(ColumnMatrix, "rank", rank)
            cx = make()
            table = ext_table(cx)
        assert table == expected
        assert {i for i, _, _ in calls} == set(range(cx.imax + builds_top))
        assert all(pivots == (i < cx.imax) for i, pivots, _ in calls)
        assert any(i == cx.imax and cleared for i, _, cleared in calls) == builds_top


def _top_weights_outside_the_bound(cx):
    # the top weights that the support bound of an unpruned sweep leaves out
    cells = unpruned_sweep(cx)
    return {w for i, w in cells if i == cx.imax} - support_bound(cx, cells)


def test_non_conilpotent_input_builds_every_top_cell():
    # g + u is a second grouplike; the term graph has the loop u -> u, and
    # pruning would read Ext^imax = 0 at imax 2 (ab = 0) and at even imax
    # from 4 on (ab = ba = 0, Ext periodic of period 2)
    for c, want in ((path_dual(), [1, 0, 1, 0, 0, 0]), (path_dual(square_zero=True), [1, 0, 1, 0, 1, 0, 1])):
        assert validate(c).flags["conilpotent"] is False
        for imax in range(2, len(want)):
            cx = build_cobar(c, imax)
            assert ext_table(cx).dims() == want[: imax + 1]
            assert not cx._bounded()
            built, twins = top_sweep(build_cobar(c, imax))
            assert not built & twins.keys()
            assert built | twins.keys() == {w for i, w in cx._dims if i == imax}
    assert any(_top_weights_outside_the_bound(build_cobar(path_dual(square_zero=True), imax)) for imax in (4, 6))


def test_cyclic_term_graph_builds_every_top_cell():
    # e1 -> e1 + e3 puts e1 into its own reduced comultiplication: the input
    # is conilpotent, but the term graph has a cycle, so nothing is pruned
    sym = flatten(symmetric_coalgebra(2, 3, QQ))
    c = sheared(sym, 1, 3)
    assert validate(c).ok
    cx = build_cobar(c, 3)
    assert not cx._bounded()
    assert _top_weights_outside_the_bound(build_cobar(c, 3))
    built, twins = top_sweep(cx)
    assert not built & twins.keys()
    assert built | twins.keys() == {w for i, w in cx._dims if i == 3}
    assert ext_table(cx) == ext_table(build_cobar(sym, 3))


def test_low_imax_builds_every_top_cell():
    # below imax 3 the layer 2 check that certifies coassociativity would
    # run on the pruned layer, so nothing is pruned there
    sym = flatten(symmetric_coalgebra(2, 3, QQ))
    assert _top_weights_outside_the_bound(build_cobar(sym, 2))
    for imax in (0, 1, 2):
        cx = build_cobar(sym, imax)
        assert not cx._bounded()
        built, twins = top_sweep(cx)
        assert not built & twins.keys()
        assert built | twins.keys() == {w for i, w in cx._dims if i == imax}
        assert ext_table(cx).dims() == [1, 2, 6][: imax + 1]
    assert build_cobar(sym, 3)._bounded()
