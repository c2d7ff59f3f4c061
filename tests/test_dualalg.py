import itertools
import random
from fractions import Fraction

import pytest

from helpers_coalgebras import (
    acceptance_corpus,
    divided_line,
    dual_numbers_dual,
    kron_bar_boundary,
    per_column_bar_reduced,
    permuted,
    quad_dual,
    rescaled,
    shifted_by_unit,
    strip_degrees,
)

import cobarlab

from cobarlab.coalg import (
    Coalgebra,
    direct_sum_comodules,
    extension_comodule,
    flatten,
    opposite,
    regular_comodule,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
    validate_comodule,
)
from cobarlab.cobar import build_cobar, cobar_with_coefficients, ext_table
from cobarlab.dualalg import (
    _BarComplex,
    _compositions,
    Algebra,
    GradedAlgebra,
    bar_ext_table,
    build_initially_projective,
    comodule_ext_dims,
    comodule_to_module,
    compare_theorem1,
    direct_sum_modules,
    dual_algebra,
    ext_via_initially_projective,
    extension_module,
    free_module,
    free_resolution_as_initially_projective,
    graded_dual,
    is_projective,
    module_ext,
    module_extension_space,
    module_to_comodule,
    opposite_algebra,
    quadratic_algebra,
    trivial_module,
    validate_algebra,
    validate_graded_algebra,
    verify_module_axioms,
)
from cobarlab.exactlin import GF, QQ, Matrix
from cobarlab.resolve import betti_dims, minimal_coresolution


def point_coalgebra(field=QQ):
    return Coalgebra(field, 1, 0, (field.one,), [((0, 0, field.one),)])


def test_dual_of_point_is_the_ground_field():
    a = dual_algebra(point_coalgebra())
    assert a.dim == 1
    assert validate_algebra(a)
    assert a.multiply((QQ.one,), (QQ.one,)) == (QQ.one,)


def test_dual_of_divided_line_is_truncated_polynomial():
    a = dual_algebra(divided_line())
    assert validate_algebra(a)
    x = (QQ.zero, QQ.one, QQ.zero)
    x2 = a.multiply(x, x)
    assert x2 == (QQ.zero, QQ.zero, QQ.one)
    assert a.multiply(x2, x) == (QQ.zero, QQ.zero, QQ.zero)
    assert a.multiply(x2, x) == a.multiply(x, x2)


def test_dual_basis_products_concatenate_reversed():
    flat = flatten(tensor_coalgebra(2, 2, QQ))
    a = dual_algebra(flat)
    assert validate_algebra(a)
    ex = tuple(QQ.one if i == 1 else QQ.zero for i in range(7))
    ey = tuple(QQ.one if i == 2 else QQ.zero for i in range(7))
    # words at degree 2 sit at offsets 3..6 in the order xx, xy, yx, yy
    assert a.multiply(ex, ey) == tuple(QQ.one if i == 5 else QQ.zero for i in range(7))
    assert a.multiply(ey, ex) == tuple(QQ.one if i == 4 else QQ.zero for i in range(7))


def test_dual_of_opposite_is_opposite_algebra():
    flat = flatten(tensor_coalgebra(2, 2, QQ))
    left = dual_algebra(opposite(flat))
    right = opposite_algebra(dual_algebra(flat))
    assert left == right


def test_action_convention_pinned_by_associativity():
    flat = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    m = regular_comodule(flat)
    good = comodule_to_module(m)
    assert verify_module_axioms(good)
    wrong = comodule_to_module(m, opposite_algebra(dual_algebra(flat)))
    assert not verify_module_axioms(wrong)


def test_graded_dual_of_symmetric_is_truncated_polynomial():
    a = graded_dual(symmetric_coalgebra(2, 3, QQ))
    assert a.dims == (1, 2, 3, 4)
    assert validate_graded_algebra(a)
    m11 = a.component(1, 1)
    assert m11.entries == {(0, 0): QQ.one, (1, 1): QQ.one, (1, 2): QQ.one, (2, 3): QQ.one}


def test_graded_dual_of_tensor_is_reversed_concatenation():
    # dual basis vectors of word coalgebras multiply by concatenating in
    # reversed order, so each component is the block swap, not the identity
    a = graded_dual(tensor_coalgebra(2, 3, QQ))
    assert validate_graded_algebra(a)
    for p in range(4):
        for q in range(4 - p):
            expect = {}
            for x in range(2 ** p):
                for y in range(2 ** q):
                    expect[(y * 2 ** p + x, x * 2 ** q + y)] = QQ.one
            got = a.component(p, q)
            assert got.nrows == 2 ** (p + q) and got.ncols == 2 ** (p + q)
            assert got.entries == expect


def test_graded_dual_round_trips():
    for g in (tensor_coalgebra(2, 3, QQ), symmetric_coalgebra(2, 4, QQ)):
        assert graded_dual(graded_dual(g)) == g
    a = quadratic_algebra(2, [(QQ.zero, QQ.one, QQ.from_int(-1), QQ.zero)], 3, QQ)
    assert graded_dual(graded_dual(a)) == a


def test_quadratic_commutator_gives_polynomial_dims():
    a = quadratic_algebra(2, [(QQ.zero, QQ.one, QQ.from_int(-1), QQ.zero)], 4, QQ)
    assert a.dims == (1, 2, 3, 4, 5)
    assert validate_graded_algebra(a)


def test_quadratic_all_relations_gives_square_zero():
    rels = [tuple(QQ.one if i == k else QQ.zero for i in range(4)) for k in range(4)]
    a = quadratic_algebra(2, rels, 4, QQ)
    assert a.dims == (1, 2, 0, 0, 0)


def test_quadratic_single_monomial_relation():
    a = quadratic_algebra(2, [(QQ.zero, QQ.one, QQ.zero, QQ.zero)], 3, QQ)
    assert a.dims == (1, 2, 3, 4)
    assert validate_graded_algebra(a)


def test_bar_table_of_ground_field():
    table = bar_ext_table(dual_algebra(point_coalgebra()), 2)
    assert table.dims() == [1, 0, 0]


def test_bar_table_of_truncated_polynomial_line():
    table = bar_ext_table(dual_algebra(divided_line()), 5)
    assert table.dims() == [1, 1, 1, 1, 1, 1]


def test_bar_table_of_square_zero_dual():
    table = bar_ext_table(dual_algebra(dual_numbers_dual()), 4)
    assert table.dims() == [1, 1, 1, 1, 1]


def test_graded_bar_matches_cobar_window():
    for g in (tensor_coalgebra(2, 3, QQ), symmetric_coalgebra(2, 4, QQ)):
        bar = bar_ext_table(graded_dual(g), 3, 3)
        cobar = ext_table(build_cobar(g, 3, 3))
        assert bar.entries == cobar.entries
    for name, g in acceptance_corpus().items():
        bar = bar_ext_table(graded_dual(g), 3, g.top_degree)
        assert bar == ext_table(build_cobar(g, 3, g.top_degree)), name


def test_commutator_quotient_bar_diagonal():
    a = quadratic_algebra(2, [(QQ.zero, QQ.one, QQ.from_int(-1), QQ.zero)], 4, QQ)
    table = bar_ext_table(a, 3, 4)
    for (i, j), v in table.entries.items():
        want = {(0, 0): 1, (1, 1): 2, (2, 2): 1}.get((i, j), 0)
        assert v == want


def test_trivial_comodule_transports_to_augmentation_module():
    c = divided_line()
    assert comodule_to_module(trivial_comodule(c)) == trivial_module(dual_algebra(c))


def test_transport_is_additive():
    c = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    m1 = trivial_comodule(c)
    m2 = extension_comodule(c, tuple(QQ.one if i == 1 else QQ.zero for i in range(7)))
    summed = comodule_to_module(direct_sum_comodules(m1, m2))
    pieces = direct_sum_modules(comodule_to_module(m1), comodule_to_module(m2))
    assert summed == pieces


def test_module_comodule_round_trip():
    c = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    m = regular_comodule(c)
    back = module_to_comodule(c, comodule_to_module(m))
    assert back.coaction_matrix() == m.coaction_matrix()
    assert validate_comodule(back).ok


def test_module_ext_over_square_zero():
    a = dual_algebra(dual_numbers_dual())
    k = trivial_module(a)
    assert module_ext(a, k, k, 4) == [1, 1, 1, 1, 1]


def test_module_ext_over_truncated_line():
    a = dual_algebra(divided_line())
    k = trivial_module(a)
    assert module_ext(a, k, k, 4) == [1, 1, 1, 1, 1]


def test_projective_source_kills_higher_ext():
    a = dual_algebra(divided_line())
    assert module_ext(a, free_module(a, 1), trivial_module(a), 3) == [1, 0, 0, 0]


def test_is_projective_classifies_small_modules():
    a = dual_algebra(dual_numbers_dual())
    assert is_projective(free_module(a, 1))
    assert is_projective(free_module(a, 2))
    assert not is_projective(trivial_module(a))
    assert is_projective(direct_sum_modules(free_module(a, 1), free_module(a, 1)))


def test_compare_theorem1_trivial_coefficients():
    c = divided_line()
    k = trivial_comodule(c)
    report = compare_theorem1(c, k, k, 4)
    assert report.ok
    assert list(report.comodule_dims) == [1, 1, 1, 1, 1]
    assert list(report.module_dims) == [1, 1, 1, 1, 1]


def test_compare_theorem1_injective_coefficients():
    c = dual_numbers_dual()
    report = compare_theorem1(c, trivial_comodule(c), regular_comodule(c), 3)
    assert report.ok
    assert list(report.comodule_dims) == [1, 0, 0, 0]


def test_compare_theorem1_random_two_dim_comodules():
    c = flatten(tensor_coalgebra(2, 2, QQ))
    rng = random.Random(442)
    for _ in range(3):
        vec1 = [QQ.from_int(rng.randrange(-2, 3)) if 1 <= i <= 2 else QQ.zero for i in range(7)]
        vec2 = [QQ.from_int(rng.randrange(-2, 3)) if 1 <= i <= 2 else QQ.zero for i in range(7)]
        if all(v == QQ.zero for v in vec1):
            vec1[1] = QQ.one
        if all(v == QQ.zero for v in vec2):
            vec2[2] = QQ.one
        l = extension_comodule(c, vec1)
        m = extension_comodule(c, vec2)
        report = compare_theorem1(c, l, m, 2)
        assert report.ok


def test_comodule_ext_matches_coefficient_cobar():
    c = divided_line()
    m = extension_comodule(c, (QQ.zero, QQ.one, QQ.zero))
    left = comodule_ext_dims(c, trivial_comodule(c), m, 3)
    right = ext_table(cobar_with_coefficients(c, m, 3)).dims()
    assert left == right


def test_fully_projective_resolution_matches_everywhere():
    a = dual_algebra(dual_numbers_dual())
    k = trivial_module(a)
    r = free_resolution_as_initially_projective(k, 3)
    assert r.projective_prefix_length == len(r.modules)
    report = ext_via_initially_projective(r, k, 3)
    assert report.agree == (True, True, True, True)
    assert list(report.dims) == [1, 1, 1, 1]


def test_degraded_resolution_matches_only_through_prefix():
    a = dual_algebra(dual_numbers_dual())
    k = trivial_module(a)
    f1 = free_module(a, 1)
    aug = Matrix.from_entries(QQ, 1, 2, [(0, 0, QQ.one)])
    times_x = a.left_action_matrix(1)
    include_socle = Matrix.from_entries(QQ, 2, 1, [(1, 0, QQ.one)])
    r = build_initially_projective(a, k, (f1, f1, k), aug, (times_x, include_socle))
    assert r.projective_prefix_length == 2
    report = ext_via_initially_projective(r, k, 3)
    assert list(report.dims) == [1, 1, 1, 0]
    assert list(report.true_dims) == [1, 1, 1, 1]
    assert report.agree == (True, True, True, False)


def test_inexact_sequence_rejected():
    a = dual_algebra(dual_numbers_dual())
    k = trivial_module(a)
    f1 = free_module(a, 1)
    aug = Matrix.from_entries(QQ, 1, 2, [(0, 0, QQ.one)])
    zero_map = Matrix.zeros(QQ, 2, 2)
    with pytest.raises(ValueError):
        build_initially_projective(a, k, (f1, f1), aug, (zero_map,))


def test_module_extensions_all_come_from_comodules():
    c = divided_line()
    a = dual_algebra(c)
    k = trivial_module(a)
    space = module_extension_space(k, k)
    assert len(space) == 1
    for datum in space:
        e = extension_module(k, k, datum)
        assert verify_module_axioms(e)
        back = module_to_comodule(c, e)
        assert validate_comodule(back).ok
        assert comodule_to_module(back, a) == e


def test_extension_space_over_flat_tensor_square():
    c = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    a = dual_algebra(c)
    k = trivial_module(a)
    space = module_extension_space(k, k)
    assert len(space) == 2
    rng = random.Random(77)
    for _ in range(4):
        datum = [QQ.zero] * len(space[0])
        for vec in space:
            coeff = QQ.from_int(rng.randrange(-2, 3))
            datum = [QQ.add(d, QQ.mul(coeff, v)) for d, v in zip(datum, vec)]
        e = extension_module(k, k, tuple(datum))
        assert verify_module_axioms(e)
        back = module_to_comodule(c, e)
        assert validate_comodule(back).ok
        assert comodule_to_module(back, a) == e


def test_betti_of_module_resolution_matches_coresolution():
    c = flatten(tensor_coalgebra(2, 2, QQ))
    k_comodule = trivial_comodule(c)
    a = dual_algebra(c)
    k_module = trivial_module(a)
    assert module_ext(a, k_module, k_module, 3) == betti_dims(minimal_coresolution(k_comodule, 3))


def test_bar_boundary_matches_kron_reference():
    ten = dual_algebra(flatten(tensor_coalgebra(2, 2, QQ)))
    for a in (dual_algebra(divided_line()), dual_algebra(divided_line(GF(5))), ten, opposite_algebra(ten)):
        bar = _BarComplex(a)
        for i in range(1, 5):
            assert bar.boundary(i) == kron_bar_boundary(bar, i)


def test_package_exports_the_module_axiom_check_of_dualalg():
    assert cobarlab.verify_module_axioms is verify_module_axioms


def test_bar_reduced_product_matches_per_column_solves():
    sym3 = flatten(symmetric_coalgebra(2, 3, QQ))
    rng = random.Random(20260820)
    factors = [QQ.one] + [Fraction(rng.randint(1, 7), rng.randint(2, 9)) for _ in range(sym3.dim - 1)]
    for c in (sym3, flatten(tensor_coalgebra(2, 2, QQ)), rescaled(sym3, factors)):
        a = dual_algebra(c)
        reduced = _BarComplex(a).reduced
        assert reduced.entries == per_column_bar_reduced(a).entries
        assert reduced.nrows == c.dim - 1 and reduced.ncols == (c.dim - 1) ** 2


def _bar_corpus(field):
    """Flattened Ten(2)<=2, Sym(2)<=3 and quad_dual<=3, their opposites, and a renumbered copy."""
    sym = flatten(symmetric_coalgebra(2, 3, field))
    out = []
    for c in (flatten(tensor_coalgebra(2, 2, field)), sym, flatten(quad_dual(3, field))):
        out += [c, opposite(c)]
    # grouplike moved to the middle: degrees of A_+ are no longer sorted
    out.append(permuted(sym, [4, 9, 0, 7, 2, 5, 1, 8, 3, 6]))
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_degree_split_bar_table_matches_zero_grading_and_cobar(field):
    for c in _bar_corpus(field):
        a = dual_algebra(c)
        assert len(_BarComplex(a).dims) == max(c.degrees) + 1 > 2  # the split is in use
        plain = dual_algebra(strip_degrees(c))
        assert _BarComplex(plain).dims == (c.dim - 1,)
        table = bar_ext_table(a, 3)
        assert table == bar_ext_table(plain, 3)
        assert table == ext_table(build_cobar(c, 3))


def _cell_positions(bar, degrees, i, w):
    """Whole-term index of each position of cell (i, w), given the degrees of the A_+ basis."""
    basis = {}
    for k, deg in enumerate(degrees):
        basis.setdefault(deg, []).append(k)
    out = []
    for comp in _compositions(w, i, bar.dims):
        for factors in itertools.product(*(basis[p] for p in comp)):
            idx = 0
            for k in factors:
                idx = idx * bar.d + k
            out.append(idx)
    return out


def test_cell_boundaries_are_the_whole_boundary_restricted():
    sym = flatten(symmetric_coalgebra(2, 3, QQ))
    cases = (
        sym,
        permuted(sym, [4, 9, 0, 7, 2, 5, 1, 8, 3, 6]),
        opposite(flatten(tensor_coalgebra(2, 2, QQ))),
        flatten(quad_dual(3, GF(7))),
    )
    for c in cases:
        bar = _BarComplex(dual_algebra(c))
        degrees = [deg for k, deg in enumerate(c.degrees) if k != c.grouplike_index]
        top = len(bar.dims) - 1
        for i in range(1, 5):
            whole = bar.boundary(i)
            seen, nnz = [], 0
            for w in range(i * top + 1):
                src = {idx: k for k, idx in enumerate(_cell_positions(bar, degrees, i, w))}
                dst = {idx: k for k, idx in enumerate(_cell_positions(bar, degrees, i - 1, w))}
                cell = bar.boundary(i, w)
                assert (cell.nrows, cell.ncols) == (len(dst), len(src)) == (bar.layout(i - 1, w)[0], bar.layout(i, w)[0])
                expect = {(dst[r], src[col]): v for (r, col), v in whole.entries.items() if col in src}
                assert cell.entries == expect
                seen += src
                nnz += cell.nnz()
            # the cells partition the term and the entries of its boundary
            assert sorted(seen) == list(range(bar.d**i))
            assert nnz == whole.nnz()


def test_degrees_that_do_not_grade_fall_back_to_one_cell():
    sym = flatten(symmetric_coalgebra(2, 3, QQ))
    ten = flatten(tensor_coalgebra(2, 2, GF(7)))
    a = dual_algebra(sym)
    swapped = list(sym.degrees)
    swapped[1], swapped[3] = swapped[3], swapped[1]  # a degree-1 and a degree-2 index
    bad = [
        (sym, dual_algebra(Coalgebra(QQ, sym.dim, 0, sym.counit, sym.comul, swapped))),
        (sym, dual_algebra(Coalgebra(QQ, sym.dim, 0, sym.counit, sym.comul, (0, 0) + sym.degrees[2:]))),
        (sym, dual_algebra(Coalgebra(QQ, sym.dim, 0, sym.counit, sym.comul, (1,) + sym.degrees[1:]))),
        # counting the letter y grades Ten(2) homogeneously, but x sits in degree 0
        (ten, dual_algebra(Coalgebra(GF(7), ten.dim, 0, ten.counit, ten.comul, (0, 0, 1, 0, 1, 1, 2)))),
        (sym, shifted_by_unit(a, 1)),
        (ten, shifted_by_unit(dual_algebra(ten), 4)),
    ]
    for c, b in bad:
        assert b.degrees is not None and validate_algebra(b)
        assert _BarComplex(b).dims == (c.dim - 1,)
        assert bar_ext_table(b, 3) == bar_ext_table(dual_algebra(c), 3) == ext_table(build_cobar(c, 3))
