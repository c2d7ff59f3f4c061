import json
import random

from helpers_coalgebras import module_action, random_subring_element, rationalizing_vector

from cobarlab import witness
from cobarlab.exactlin import GF, QQ, Matrix
from cobarlab.witness import (
    ContraWitness,
    EventuallyConstant,
    HomToQ,
    QElement,
    TwoDimModule,
    build_contra_witness,
    build_nonrational_module,
    constant_functional,
    contra_report,
    contraaction,
    coordinate_functional,
    default_nonrational_cofunctional,
    diagonal_tail_map,
    eventual_value,
    finite_rank_map,
    from_vector,
    is_rational,
    max_rational_submodule,
    nonrational_report,
    phi,
    rationality_obstruction,
    subring_unit,
    verify_contra_witness,
    verify_module_axioms,
    zero_functional,
)

one = QQ.one
zero = QQ.zero
two = QQ.from_int(2)


def test_eventually_constant_values_and_normalization():
    chi = EventuallyConstant(QQ, 3, {1: 5, 4: 3, 7: -2})
    # corrections equal to the tail are dropped
    assert chi.corrections == ((1, QQ.from_int(5)), (7, QQ.from_int(-2)))
    assert chi.value(0) == QQ.from_int(3)
    assert chi.value(1) == QQ.from_int(5)
    assert chi.value(4) == QQ.from_int(3)
    assert chi.value(100) == QQ.from_int(3)
    assert chi.support_bound() == 8


def test_eventually_constant_arithmetic():
    a = EventuallyConstant(QQ, 1, {0: 2})
    b = EventuallyConstant(QQ, -1, {0: -2, 3: 4})
    s = a.add(b)
    assert s.tail == zero
    assert s.value(0) == zero
    assert s.value(3) == QQ.from_int(5)
    assert a.add(a.scale(-1)).is_zero()
    assert a.scale(3).value(0) == QQ.from_int(6)


def test_cofunctional_evaluation():
    chi = EventuallyConstant(QQ, 2, {0: 1, 3: -1})
    f = from_vector([1, 0, 0, 4])
    assert f(chi) == QQ.from_int(1 * 1 + 4 * -1)
    g = eventual_value(3, {0: 1})
    # tail of chi weighted by 3 plus the coordinate correction
    assert g(chi) == QQ.from_int(3 * 2 + 1 * 1)
    assert g(zero_functional()) == zero
    assert g(constant_functional()) == QQ.from_int(4)


def test_subring_multiplication_law():
    rng = random.Random(20260816)
    u = subring_unit()
    for _ in range(50):
        a = random_subring_element(rng)
        b = random_subring_element(rng)
        c = random_subring_element(rng)
        assert (a * u).alpha == a.alpha and (a * u).chi == a.chi
        assert (u * a).chi == a.chi
        ab = a * b
        assert ab.alpha == a.alpha * b.alpha
        for i in range(9):
            assert ab.chi.value(i) == a.alpha * b.chi.value(i) + b.alpha * a.chi.value(i)
        left = (a * b) * c
        right = a * (b * c)
        assert left.alpha == right.alpha and left.chi == right.chi


def test_extension_value_is_a_derivation_over_the_character():
    rng = random.Random(7)
    f = eventual_value(2, {1: 3})
    m = build_nonrational_module(f)
    for _ in range(50):
        a = random_subring_element(rng)
        b = random_subring_element(rng)
        lhs = m.extension_value(a * b)
        rhs = a.alpha * m.extension_value(b) + b.alpha * m.extension_value(a)
        assert lhs == rhs


def test_module_axioms_hold_for_all_variants():
    for f in (
        from_vector([]),
        from_vector([0, 1]),
        eventual_value(1),
        eventual_value(2, {3: 5}),
    ):
        m = build_nonrational_module(f)
        assert verify_module_axioms(m)
    m = build_nonrational_module(default_nonrational_cofunctional())
    assert verify_module_axioms(m)


def test_corrupted_action_fails_the_checker():
    m = TwoDimModule(default_nonrational_cofunctional(), corrupt=True)
    assert not verify_module_axioms(m)
    # the spurious term is f(chi_a) f(chi_b) e_2, so every nonzero f exposes it
    for f in (from_vector([0, 1]), eventual_value(2, {3: 5}), eventual_value(0, {4: 1}), eventual_value(1, field=GF(5))):
        assert not verify_module_axioms(TwoDimModule(f, corrupt=True))
    assert verify_module_axioms(TwoDimModule(from_vector([0, 0]), corrupt=True))


def test_is_rational():
    assert is_rational(from_vector([1, 0, 3]))
    assert not is_rational(eventual_value(1))
    assert is_rational(eventual_value(0, {2: 5}))


def test_rationalizing_vector_reproduces_the_cofunctional():
    rng = random.Random(5)
    f = eventual_value(0, {2: 5})
    coords = rationalizing_vector(f)
    assert coords == (zero, zero, QQ.from_int(5))
    g = from_vector(coords)
    for _ in range(30):
        chi = random_subring_element(rng).chi
        assert f(chi) == g(chi)
    assert rationalizing_vector(eventual_value(1)) is None
    assert rationalizing_vector(from_vector([1, 2])) == (one, two)


def test_rationality_obstruction():
    assert rationality_obstruction(from_vector([1, 0, 3])) == zero
    assert rationality_obstruction(eventual_value(0, {2: 5})) == zero
    assert rationality_obstruction(eventual_value(1)) == one
    assert rationality_obstruction(eventual_value(-3, {1: 7})) == QQ.from_int(-3)


def test_rationality_obstruction_reads_the_whole_support():
    # the window is f's own support bound, however far out it lies
    assert rationality_obstruction(from_vector([0] * 40 + [3])) == zero
    assert rationality_obstruction(eventual_value(2, {40: 3})) == two


def test_max_rational_submodule():
    # equal reduced echelon forms: the same row space
    whole = Matrix.from_rows(QQ, [[one, zero], [zero, one]]).rref()
    line = Matrix.from_rows(QQ, [[one, zero]]).rref()
    assert max_rational_submodule(build_nonrational_module(from_vector([]))).rref() == whole
    assert max_rational_submodule(build_nonrational_module(from_vector([1]))).rref() == whole
    assert max_rational_submodule(build_nonrational_module(eventual_value(1))).rref() == line


def test_nonrational_report():
    rep = nonrational_report()
    assert rep["module_axioms_verified"] is True
    # nothing is sampled, so the report names no sample count and no seed
    assert not {"samples", "seed"} & set(rep)
    assert rep["is_rational"] is False
    assert rep["rationality_obstruction"] == 1
    assert rep["max_rational_submodule"] == [[1, 0]]
    json.dumps(rep, sort_keys=True)


def test_tagged_linear_map_normal_form():
    m = finite_rank_map({(0, 1): 2, (3, 3): 0})
    assert m.is_finite_rank
    assert m.block == (((0, 1), two),)
    d = diagonal_tail_map(0, {2: 7})
    # a zero tail is finite rank no matter the corrections
    assert d.is_finite_rank
    assert phi(d) == zero
    g = diagonal_tail_map(1, {0: -1})
    assert not g.is_finite_rank
    assert g.entry(0, 0) == zero
    assert g.entry(5, 5) == one
    assert g.entry(0, 1) == zero


def test_phi_is_linear_on_tagged_combinations():
    rng = random.Random(20260816)
    for _ in range(40):
        m1 = diagonal_tail_map(rng.randrange(-3, 4), {rng.randrange(4): rng.randrange(-3, 4)})
        m2 = finite_rank_map({(rng.randrange(4), rng.randrange(4)): rng.randrange(-3, 4)})
        c1 = QQ.from_int(rng.randrange(-3, 4))
        c2 = QQ.from_int(rng.randrange(-3, 4))
        combo = m1.scale(c1).add(m2.scale(c2))
        assert phi(combo) == c1 * phi(m1) + c2 * phi(m2)


def test_contraaction_components():
    # pure k input: evaluation at the grouplike, nothing leaks into T
    h = HomToQ(QQ, 5)
    out = contraaction(h)
    assert out.k_part == QQ.from_int(5) and out.t_part == ()
    # pure T input with finite rank V block: T value kept, k part untouched
    h = HomToQ(QQ, 0, {1: 3}, finite_rank_map({(0, 0): 9}))
    out = contraaction(h)
    assert out.k_part == zero
    assert out.t_part == ((1, QQ.from_int(3)),)
    # the designated witness mixes into the k summand
    w = build_contra_witness()
    probe = HomToQ(QQ, 0, (), w.witness)
    assert w.contraaction(probe).k_part == one


def test_module_action_keeps_both_summands():
    rng = random.Random(33)
    for _ in range(30):
        a = random_subring_element(rng)
        a = type(a)(a.alpha, EventuallyConstant(QQ, 0, a.chi.corrections))
        q = QElement(QQ, rng.randrange(-3, 4), {0: rng.randrange(-3, 4), 2: rng.randrange(-3, 4)})
        out = module_action(a, q)
        assert out.k_part == a.alpha * q.k_part
        expect = tuple((i, a.alpha * t) for i, t in q.t_part if a.alpha * t != zero)
        assert out.t_part == expect


def test_module_action_rejects_nonzero_tail():
    a = random_subring_element(random.Random(1))
    while a.chi.tail == zero:
        a = random_subring_element(random.Random(2))
    q = QElement(QQ, 1, {0: 1})
    try:
        module_action(a, q)
    except ValueError:
        pass
    else:
        raise AssertionError("expected a ValueError for a nonzero tail")


def test_splitting_module_linear_but_not_contraaction_linear():
    w = build_contra_witness()
    probe = HomToQ(QQ, 0, (), w.witness)
    left = w.splitting(w.contraaction(probe))
    right = w.contraaction_on_k(probe)
    assert left == one and right == zero


def test_contra_report():
    rep = contra_report()
    assert rep["contraassociative"] is True
    assert rep["contraunital"] is True
    assert rep["module_trivial"] is True
    assert rep["contra_nontrivial"] is True
    assert rep["splitting_not_contra_linear"] is True
    assert rep["witness_value"] == 1
    json.dumps(rep, sort_keys=True)
    # a finite rank designated witness demonstrates nothing
    flat = verify_contra_witness(ContraWitness(QQ, finite_rank_map({(0, 0): 1})))
    assert flat["contra_nontrivial"] is False
    assert flat["splitting_not_contra_linear"] is False
    assert not {"samples", "seed"} & set(rep)


def test_nonadditive_phi_fails_contraassociativity(monkeypatch):
    # tail^2 still kills finite rank maps and 0, but phi(I + I) = 4 != 2
    monkeypatch.setattr(witness, "phi", lambda m: m.field.mul(m.tail, m.tail))
    rep = contra_report()
    assert rep["contraassociative"] is False
    assert rep["contraunital"] and rep["module_trivial"]


def test_phi_reading_a_block_entry_fails_module_trivial(monkeypatch):
    # additive, but it does not kill the finite rank map E_00
    monkeypatch.setattr(witness, "phi", lambda m: m.entry(0, 0))
    rep = contra_report()
    assert rep["module_trivial"] is False
    assert rep["contraassociative"] and rep["contraunital"] and rep["contra_nontrivial"]


def test_affine_phi_fails_contraunit(monkeypatch):
    monkeypatch.setattr(witness, "phi", lambda m: m.field.add(m.tail, m.field.one))
    assert contra_report()["contraunital"] is False


def test_witness_over_prime_field():
    field = GF(5)
    m = build_nonrational_module(eventual_value(1, field=field))
    assert verify_module_axioms(m)
    assert not is_rational(m.f)
    rep = contra_report(field=field)
    assert rep["module_trivial"] and rep["contra_nontrivial"]
    assert rep["contraassociative"] and rep["contraunital"]
