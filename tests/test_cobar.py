import random
from fractions import Fraction
from importlib import resources

import pytest

from helpers_coalgebras import divided_line, dual_numbers_dual, kron_cobar_diff, non_coassociative, rescaled, strip_degrees

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
    _layers,
    CobarClass,
    build_cobar,
    class_coordinates,
    cobar_with_coefficients,
    cohomology_basis,
    ext_algebra_table,
    ext_product,
    ext_table,
    product_vector,
    reverse_tensor_vector,
)
from cobarlab.exactlin import QQ, GF
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
        prod = cx.diff(i + 1, None) @ cx.diff(i, None)
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
    assert cx.cell_dim(2, 3) == 16
    table = ext_table(cx)
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
    assert all(v == QQ.zero for v in sq.vector)


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
    a = CobarClass(1, (QQ.from_int(2),))
    b = CobarClass(2, (QQ.from_int(3),))
    assert product_vector(cx, a, b) == (QQ.from_int(6),)


def test_opposite_has_same_table_and_reversal_carries_cocycles():
    flat = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    op = opposite(flat)
    cx = build_cobar(flat, 3)
    cxop = build_cobar(op, 3)
    assert ext_table(cx) == ext_table(cxop)
    d = flat.dim - 1
    for i in (1, 2, 3):
        reps = cohomology_basis(cxop, i)
        coords = [class_coordinates(cx, CobarClass(i, reverse_tensor_vector(d, i, r.vector))) for r in reps]
        seen = {tuple(v) for v in coords}
        assert len(seen) == len(reps)
        assert all(any(x != QQ.zero for x in v) for v in coords)


def test_reversal_is_an_involution():
    rng = random.Random(20260816)
    d, deg = 3, 3
    vec = tuple(QQ.from_int(rng.randrange(-4, 5)) for _ in range(d**deg))
    assert reverse_tensor_vector(d, deg, reverse_tensor_vector(d, deg, vec)) == vec


def test_reversal_antihomomorphism_on_classes():
    flat = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    op = opposite(flat)
    cx = build_cobar(flat, 3)
    cxop = build_cobar(op, 3)
    d = flat.dim - 1

    def transport(cls):
        return CobarClass(cls.degree, reverse_tensor_vector(d, cls.degree, cls.vector))

    for a in cohomology_basis(cxop, 1):
        for b in cohomology_basis(cxop, 1):
            ab = ext_product(cxop, a, b)
            lhs = class_coordinates(cx, transport(ab))
            rhs = ext_product(cx, transport(b), transport(a))
            assert lhs == rhs.coords


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
            assert cx.diff(i, None) == kron_cobar_diff(c, i)


def test_coefficient_differential_matches_kron_reference():
    c = divided_line()
    extension = extension_comodule(c, (QQ.zero, QQ.one, QQ.zero))
    for m in (trivial_comodule(c), regular_comodule(c), extension):
        cx = cobar_with_coefficients(c, m, 3)
        for i in range(4):
            assert cx.diff(i, None) == kron_cobar_diff(c, i, m)


def test_non_coassociative_input_fails_the_square_check():
    # at scale 1/2 the sweep squares 2 * d, and 4 * d^2 must still fail
    for scale in (QQ.one, Fraction(1, 2)):
        with pytest.raises(AssertionError, match="square to zero"):
            ext_table(build_cobar(non_coassociative(scale), 2))


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


def _cell_diff_negating_each_entry(f, cell, rows, comul, coaction):
    """Cell entries built the plain way: each odd-slot constant is negated as it is inserted."""
    entries = {}
    for col, tensor in enumerate(cell):
        last = len(tensor) - 1
        for s, a in enumerate(tensor):
            for p, q, v in coaction[a] if s == last else comul[a]:
                key = (rows.setdefault(tensor[:s] + (p, q) + tensor[s + 1 :], len(rows)), col)
                if s % 2:
                    v = f.neg(v)
                v = f.add(entries[key], v) if key in entries else v
                if v:
                    entries[key] = v
                else:
                    del entries[key]
    return entries


def test_cells_with_negated_tables_match_per_entry_negation():
    c3 = loads_presentation(resources.files("cobarlab").joinpath("data", "c3.json").read_text(encoding="utf-8"))
    for c, imax in ((c3, 6), (flatten(symmetric_coalgebra(2, 3, QQ)), 3), (flatten(symmetric_coalgebra(2, 3, GF(7))), 3)):
        cx = build_cobar(c, imax)
        f = cx.field
        (comul, _), (coaction, _) = cx._int_constants
        layers = list(_layers(cx._grading, imax + 1))
        for i in range(imax + 1):
            for w, cell in layers[i].items():
                target = layers[i + 1].get(w, ())
                got = cx._cell_diff(cell, {t: r for r, t in enumerate(target)}, *cx._int_constants).entries
                want = _cell_diff_negating_each_entry(f, cell, {t: r for r, t in enumerate(target)}, comul, coaction)
                assert got == want
                assert all(type(got[k]) is type(v) for k, v in want.items())
            whole = cx.diff(i, None)
            dst = {t: r for r, t in enumerate(sorted(t for cell in layers[i + 1].values() for t in cell))}
            src = sorted(t for cell in layers[i].values() for t in cell)
            assert whole.entries == _cell_diff_negating_each_entry(f, src, dst, cx._comul, cx._coaction)
