import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers_coalgebras import (
    acceptance_corpus,
    bar_boundary,
    bar_cell_positions,
    bar_cells,
    bar_reference,
    component_bar_reduced,
    direct_sum_comodules,
    direct_sum_modules,
    divided_line,
    dual_numbers_dual,
    extension_module,
    kron_bar_boundary,
    kron_validate_algebra,
    kron_validate_graded_algebra,
    module_actions,
    module_extension_space,
    non_associative_algebra,
    non_associative_graded_algebra,
    per_basis_module_axioms,
    per_column_bar_reduced,
    permuted,
    quad_dual,
    rescaled,
    restricted_transpose,
    scaled,
    sheared,
    shifted_by_unit,
    strip_degrees,
    zero_grading_dims,
)

import cobarlab

from cobarlab.coalg import (
    Coalgebra,
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
    _flat,
    Algebra,
    GradedAlgebra,
    ModulePresentation,
    bar_ext_table,
    build_initially_projective,
    comodule_ext_dims,
    comodule_to_module,
    compare_theorem1,
    dual_algebra,
    ext_via_initially_projective,
    free_module,
    free_resolution_as_initially_projective,
    graded_dual,
    is_projective,
    minimal_free_resolution,
    module_ext,
    module_to_comodule,
    opposite_algebra,
    quadratic_algebra,
    trivial_module,
    validate_algebra,
    verify_module_axioms,
)
from cobarlab.exactlin import GF, QQ, Matrix, kron_identity_matmul
from cobarlab.exttable import ExtTable, finest_grading
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


def test_dual_algebra_product_is_one_sparse_matrix_with_an_entry_per_comultiplication_term():
    c = flatten(symmetric_coalgebra(2, 3, QQ))
    n = c.dim
    a = dual_algebra(c)
    assert isinstance(a.mult, Matrix)
    assert (a.mult.nrows, a.mult.ncols) == (n, n * n)
    assert a.mult.nnz() == sum(map(len, c.comul))
    # v e_i (x) e_j in the comultiplication of e_t puts v e^t into e^j e^i, column j*n + i
    assert all(a.mult.entries[(t, j * n + i)] == v for t in range(n) for i, j, v in c.comul[t])


def test_opposite_algebra_permutes_the_product_columns_and_is_an_involution():
    a = dual_algebra(flatten(tensor_coalgebra(2, 2, QQ)))
    n = a.dim
    op = opposite_algebra(a)
    assert all(op.mult.column(y * n + x) == a.mult.column(x * n + y) for x in range(n) for y in range(n))
    assert op != a
    assert opposite_algebra(op) == a


def test_bar_ext_of_the_dual_of_flattened_tensor_2_5_matches_the_cobar_table():
    c = flatten(tensor_coalgebra(2, 5, QQ))
    expected = ExtTable("finite", {0: 1, 1: 2, 2: 64, 3: 128}, 3)
    assert ext_table(build_cobar(c, 3)) == expected
    assert bar_ext_table(dual_algebra(c), 3) == expected


def test_action_convention_pinned_by_associativity():
    flat = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    m = regular_comodule(flat)
    good = comodule_to_module(m)
    assert verify_module_axioms(good)
    wrong = comodule_to_module(m, opposite_algebra(dual_algebra(flat)))
    assert not verify_module_axioms(wrong)


def test_one_changed_action_entry_breaks_the_module_axioms():
    c = strip_degrees(flatten(tensor_coalgebra(2, 2, QQ)))
    p = comodule_to_module(regular_comodule(c))
    assert verify_module_axioms(p)
    for key, v in p.action.entries.items():
        entries = dict(p.action.entries)
        entries[key] = v + 1
        if not entries[key]:
            del entries[key]
        changed = ModulePresentation(p.algebra, p.dim, Matrix(QQ, p.dim, p.action.ncols, entries))
        assert not verify_module_axioms(changed), key
        assert not per_basis_module_axioms(changed), key


def test_module_axioms_agree_with_the_per_pair_reference_on_the_acceptance_corpus():
    for name, g in acceptance_corpus().items():
        c = flatten(g)
        a = dual_algebra(c)
        for m in (trivial_comodule(c), regular_comodule(c)):
            for algebra in (a, opposite_algebra(a)):
                p = comodule_to_module(m, algebra)
                assert verify_module_axioms(p) == per_basis_module_axioms(p), name
    # the opposite product fails on the noncommutative members, so both outcomes are exercised
    flat = flatten(acceptance_corpus()["ten22"])
    assert not verify_module_axioms(comodule_to_module(regular_comodule(flat), opposite_algebra(dual_algebra(flat))))


def test_graded_dual_of_symmetric_is_truncated_polynomial():
    a = graded_dual(symmetric_coalgebra(2, 3, QQ))
    assert a.dims == (1, 2, 3, 4)
    assert validate_algebra(_flat(a))
    m11 = a.component(1, 1)
    assert m11.entries == {(0, 0): QQ.one, (1, 1): QQ.one, (1, 2): QQ.one, (2, 3): QQ.one}


def test_graded_dual_of_tensor_is_reversed_concatenation():
    # dual basis vectors of word coalgebras multiply by concatenating in
    # reversed order, so each component is the block swap, not the identity
    a = graded_dual(tensor_coalgebra(2, 3, QQ))
    assert validate_algebra(_flat(a))
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


def test_product_with_a_kronecker_product_by_index_arithmetic_matches_matrix_kron():
    # quadratic_algebra forms P (S_p (x) S_q) this way, without building the Kronecker product
    rng = random.Random(29)
    for field in (QQ, GF(7)):
        for _ in range(60):
            shape = [rng.randrange(1, 4) for _ in range(4)]
            left, right = (
                Matrix.from_entries(field, r, c, [(i, j, rng.randrange(-3, 4)) for i in range(r) for j in range(c) if rng.random() < 0.6])
                for r, c in (shape[:2], shape[2:])
            )
            rows, cols = rng.randrange(1, 4), left.nrows * right.nrows
            p = Matrix.from_entries(
                field, rows, cols, [(i, j, rng.randrange(-3, 4)) for i in range(rows) for j in range(cols) if rng.random() < 0.6]
            )
            inner = kron_identity_matmul(left.transpose(), right.nrows, p.transpose())
            assert kron_identity_matmul(left.ncols, right.transpose(), inner).transpose() == p @ left.kron(right)


def test_quadratic_commutator_gives_polynomial_dims():
    a = quadratic_algebra(2, [(QQ.zero, QQ.one, QQ.from_int(-1), QQ.zero)], 4, QQ)
    assert a.dims == (1, 2, 3, 4, 5)
    assert validate_algebra(_flat(a))


def test_quadratic_all_relations_gives_square_zero():
    rels = [tuple(QQ.one if i == k else QQ.zero for i in range(4)) for k in range(4)]
    a = quadratic_algebra(2, rels, 4, QQ)
    assert a.dims == (1, 2, 0, 0, 0)


def test_quadratic_single_monomial_relation():
    a = quadratic_algebra(2, [(QQ.zero, QQ.one, QQ.zero, QQ.zero)], 3, QQ)
    assert a.dims == (1, 2, 3, 4)
    assert validate_algebra(_flat(a))


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


def test_free_module_acts_by_the_product_tensored_with_an_identity():
    a = dual_algebra(flatten(tensor_coalgebra(2, 2, QQ)))
    assert free_module(a, 1).action == a.mult
    for w in (2, 3):
        free = free_module(a, w)
        assert free.dim == a.dim * w
        assert free.action == a.mult.kron(Matrix.identity(QQ, w))
        assert verify_module_axioms(free)


def test_module_side_never_builds_a_free_module(monkeypatch):
    c = flatten(symmetric_coalgebra(2, 3, QQ))
    a = dual_algebra(c)
    k = trivial_comodule(c)

    def unreachable(*args):
        raise AssertionError("free module built")

    monkeypatch.setattr("cobarlab.dualalg.free_module", unreachable)
    assert module_ext(a, trivial_module(a), trivial_module(a), 4) == [1, 2, 6, 14, 38]
    assert module_ext(a, trivial_module(a), trivial_module(a), 4) == comodule_ext_dims(c, k, k, 4)
    report = compare_theorem1(c, regular_comodule(c), k, 4)
    assert report.ok
    assert list(report.module_dims) == [4, 5, 20, 40, 120]


def test_free_resolutions_refuse_an_algebra_without_augmentation():
    a = Algebra(QQ, 1, (QQ.one,), Matrix.identity(QQ, 1))
    p = free_module(a, 1)
    with pytest.raises(ValueError, match="require an augmented algebra"):
        is_projective(p)
    with pytest.raises(ValueError, match="require an augmented algebra"):
        minimal_free_resolution(p, 1)


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


def test_compare_theorem1_refuses_invalid_comodules():
    c = divided_line()
    k = trivial_comodule(c)
    bad = extension_comodule(c, (QQ.zero, QQ.zero, QQ.one))  # not primitive: coassociativity fails
    with pytest.raises(ValueError, match="left comodule failed validation: coassociative"):
        compare_theorem1(c, bad, k, 2)
    with pytest.raises(ValueError, match="right comodule failed validation: coassociative"):
        compare_theorem1(c, k, bad, 2)


def test_compare_theorem1_refuses_comodules_over_another_coalgebra():
    # both of dimension 3: comparing would resolve over one base and transport over the other
    c = flatten(tensor_coalgebra(2, 1, QQ))
    d = divided_line()
    assert c.dim == d.dim
    with pytest.raises(ValueError, match="comparison left comodule is not over the given coalgebra"):
        compare_theorem1(c, trivial_comodule(d), trivial_comodule(c), 3)
    with pytest.raises(ValueError, match="comparison right comodule is not over the given coalgebra"):
        compare_theorem1(c, trivial_comodule(c), trivial_comodule(d), 3)


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
    times_x = module_actions(free_module(a, 1))[1]
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


@pytest.mark.parametrize("which", ["dual_numbers", "divided_line"])
def test_build_initially_projective_names_each_refusal(which):
    a = dual_algebra(dual_numbers_dual() if which == "dual_numbers" else divided_line())
    k = trivial_module(a)
    ws, chain = minimal_free_resolution(k, 3)
    modules = tuple(free_module(a, w) for w in ws)
    aug, d1, d2, *rest = chain
    n = d1.nrows
    # reversing the basis of F_1 in d_1, and undoing it in d_2, keeps the sequence exact but is no module map
    flip = Matrix(QQ, d1.ncols, d1.ncols, {(d1.ncols - 1 - i, i): QQ.one for i in range(d1.ncols)})
    changed = Matrix(QQ, n, d1.ncols, {**d1.entries, (0, 0): QQ.one})
    broken = {
        "zeroed augmentation": ("augmentation is not surjective", Matrix.zeros(QQ, aug.nrows, aug.ncols), [d1, d2]),
        "wrong shape": ("chain map has wrong shape", aug, [Matrix(QQ, n, d1.ncols + 1, d1.entries), d2]),
        "changed entry": ("chain map is not a module morphism", aug, [changed, d2]),
        # F_1 = F_0 = A here, and the identity is a module map
        "identity d_1": ("input sequence is not a complex", aug, [Matrix.identity(QQ, n), d2]),
        "zeroed d_2": ("input sequence is not exact", aug, [d1, Matrix.zeros(QQ, d2.nrows, d2.ncols)]),
        "permuted columns": ("chain map is not a module morphism", aug, [d1 @ flip, flip @ d2]),
    }
    for name, (message, first, maps) in broken.items():
        with pytest.raises(ValueError, match=message):
            build_initially_projective(a, k, modules, first, tuple(maps + rest))
    doubled = Matrix(QQ, d2.nrows, d2.ncols, {key: 2 * v for key, v in d2.entries.items()})
    assert build_initially_projective(a, k, modules, aug, (d1, doubled, *rest)).projective_prefix_length == len(modules)


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
    # shearing puts a basis vector into its own square, so the product's diagonal meets the copied columns
    line = dual_algebra(sheared(divided_line(GF(5)), 1, 2))
    sym = dual_algebra(sheared(flatten(symmetric_coalgebra(2, 3, QQ)), 1, 3))
    for a in (dual_algebra(divided_line()), dual_algebra(divided_line(GF(5))), ten, opposite_algebra(ten), line, sym):
        bar = _BarComplex(a)
        for i in range(1, 5):
            assert bar_boundary(bar, i) == kron_bar_boundary(bar, i)


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


def _graded_algebras():
    """(name, graded algebra): the acceptance corpus duals, three quadratic algebras over QQ and GF(7), T(2)<=5 and Sym(3)<=3."""
    out = [(name + "_dual", graded_dual(g)) for name, g in acceptance_corpus().items()]
    for field in (QQ, GF(7)):
        one, zero = field.one, field.zero
        quadratic = {
            "sym2": [(zero, one, field.from_int(-1), zero)],
            "xy_zero": [(zero, one, zero, zero)],
            "square_zero": [[one if i == k else zero for i in range(4)] for k in range(4)],
        }
        out += [("%s_%s" % (name, field), quadratic_algebra(2, rels, 4, field)) for name, rels in quadratic.items()]
    return out + [("ten2_d5", graded_dual(tensor_coalgebra(2, 5, QQ))), ("sym3_d3", graded_dual(symmetric_coalgebra(3, 3, QQ)))]


def test_graded_bar_complex_reads_the_flattening_as_the_components_assemble_it():
    for name, g in _graded_algebras():
        bar = _BarComplex(g)
        reduced, degrees = component_bar_reduced(g)
        assert bar.reduced == reduced, name
        assert [w[0] for w in bar.weights] == degrees, name  # the degree is the first weight coordinate
        eqs = [(r, *divmod(c, bar.d)) for r, c in reduced.entries]
        weights = [(deg,) + w for deg, w in zip(degrees, finest_grading(eqs, bar.d))]
        assert bar.weights == weights, name
        assert bar.grading[1] == sorted(Counter(weights).items()), name


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
        bar = _BarComplex(a)
        degrees = [deg for k, deg in enumerate(c.degrees) if k != c.grouplike_index]
        assert [w[0] for w in bar.weights] == degrees  # the degree is the first weight coordinate
        assert len(bar.grading[1]) > max(c.degrees) > 1  # and the split is finer than the degree
        plain = _BarComplex(dual_algebra(strip_degrees(c)))
        assert [w[1:] for w in bar.weights] == plain.weights  # without degrees, the product's own grading
        table = bar_ext_table(a, 3)
        assert table == bar_ext_table(dual_algebra(strip_degrees(c)), 3)
        assert table.dims() == zero_grading_dims(plain, 3)
        assert table == ext_table(build_cobar(c, 3))


def test_cell_boundaries_are_the_whole_boundary_restricted():
    sym = flatten(symmetric_coalgebra(2, 3, QQ))
    cases = (
        sym,
        permuted(sym, [4, 9, 0, 7, 2, 5, 1, 8, 3, 6]),
        opposite(flatten(tensor_coalgebra(2, 2, QQ))),
        flatten(quad_dual(3, GF(7))),
    )
    for c in cases:
        a = dual_algebra(c)
        bar = _BarComplex(a)
        ref, weights = bar_reference(a, bar)
        assert [w[0] for w in weights] == [deg for k, deg in enumerate(c.degrees) if k != c.grouplike_index]
        cells = bar_cells(bar, 4)
        sizes, _ = bar.sweep(3)
        for i in range(1, 5):
            whole = kron_bar_boundary(ref, i)
            seen, nnz = [], 0
            for w in [w for j, w in cells if j == i]:
                src, dst = bar_cell_positions(weights, i, w), bar_cell_positions(weights, i - 1, w)
                cell = cells[(i, w)]
                assert (cell.nrows, cell.ncols) == (len(src), len(dst)) == (sizes[(i, w)], sizes.get((i - 1, w), 0))
                assert cell.entries == restricted_transpose(whole, dst, src)
                seen += src
                nnz += cell.nnz()
            # the cells partition the term and the entries of its boundary
            assert sorted(seen) == list(range(bar.d**i))
            assert nnz == whole.nnz()


def test_degrees_that_do_not_grade_are_left_out_of_the_weights():
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
        plain = Algebra(b.field, b.dim, b.unit, b.mult, b.augmentation)
        assert _BarComplex(b).weights == _BarComplex(plain).weights
        assert bar_ext_table(b, 3) == bar_ext_table(dual_algebra(c), 3) == ext_table(build_cobar(c, 3))


def test_a_product_that_respects_no_grading_keeps_one_cell_per_term():
    # e_1 in its own square forces w_1 = 0, and then w_2 = 2 w_1 = 0
    for c in (sheared(divided_line(GF(5)), 1, 2), sheared(divided_line(), 1, 2)):
        bar = _BarComplex(dual_algebra(c))
        assert bar.weights == [(), ()] and bar.grading[1] == [((), 2)]
        sizes, _ = bar.sweep(4)
        assert sizes == {(i, ()): 2**i for i in range(6)}
        assert bar_ext_table(dual_algebra(c), 4) == ext_table(build_cobar(c, 4))


def test_bar_ext_table_refuses_an_invalid_algebra():
    line = dual_algebra(divided_line())
    # eps = 0 puts the unit into A_+ = ker(eps), and the bar complex would build on that unchecked; validation runs first
    for a in (non_associative_algebra(), _with(line, augmentation=(QQ.zero,) * 3)):
        assert not validate_algebra(a)
        with pytest.raises(ValueError, match="algebra_valid"):
            bar_ext_table(a, 4)


def test_bar_ext_table_refuses_a_non_associative_graded_algebra():
    a = non_associative_graded_algebra()
    assert not validate_algebra(_flat(a))
    with pytest.raises(ValueError, match="algebra_valid"):
        bar_ext_table(a, 3)


def _with(a, unit=None, augmentation=None):
    """The same multiplication table with the unit or augmentation replaced."""
    unit = a.unit if unit is None else unit
    augmentation = a.augmentation if augmentation is None else augmentation
    return Algebra(a.field, a.dim, unit, a.mult, augmentation, a.degrees)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=["QQ", "GF7", "GFbig"])
def test_algebra_validators_match_kron_reference(field):
    line = dual_algebra(divided_line(field))
    one, zero = field.one, field.zero
    ten = dual_algebra(flatten(tensor_coalgebra(2, 2, field)))
    finite = {
        "line": line,
        "ten22": ten,
        "ten22_op": opposite_algebra(ten),
        "sym23": dual_algebra(flatten(symmetric_coalgebra(2, 3, field))),
        "shifted": shifted_by_unit(ten, 3),
        "non_associative": non_associative_algebra(field),
        "wrong_unit": _with(line, unit=(one, one, zero)),
        # eps(x) = 1 but eps(x x) = 0; eps(1) is still 1
        "non_multiplicative_augmentation": _with(line, augmentation=(one, one, zero)),
        # multiplicative, but eps(1) = 0
        "zero_augmentation": _with(line, augmentation=(zero, zero, zero)),
    }
    for name, a in finite.items():
        want = name not in ("non_associative", "wrong_unit", "non_multiplicative_augmentation", "zero_augmentation")
        assert validate_algebra(a) == kron_validate_algebra(a) == want, name
    two = field.from_int(2)
    quad = quadratic_algebra(2, [(zero, one, field.from_int(-1), zero)], 3, field)
    graded = {
        "sym23": graded_dual(symmetric_coalgebra(2, 3, field)),
        "ten23": graded_dual(tensor_coalgebra(2, 3, field)),
        "commutator": quad,
        "square_zero": quadratic_algebra(2, [[one if i == k else zero for i in range(4)] for k in range(4)], 3, field),
        "non_associative": non_associative_graded_algebra(field),
        "wrong_unit": GradedAlgebra(field, quad.dims, {**quad.components, (0, 1): scaled(quad.component(0, 1), two)}),
    }
    for name, a in graded.items():
        want = name not in ("non_associative", "wrong_unit")
        assert validate_algebra(_flat(a)) == kron_validate_graded_algebra(a) == want, name
