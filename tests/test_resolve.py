import random
from fractions import Fraction
from itertools import chain

import pytest

from helpers_coalgebras import (
    contramodule_ext_dims,
    divided_line,
    dual_numbers_dual,
    field_rref,
    path_dual,
    per_unit_socle_retraction,
    rescaled,
)

from cobarlab import exactlin, resolve
from cobarlab.coalg import (
    Coalgebra,
    ValidationReport,
    cofree_comodule,
    extension_comodule,
    flatten,
    opposite,
    socle,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
    validate_comodule,
)
from cobarlab.cobar import build_cobar, cobar_with_coefficients, ext_table
from cobarlab.exactlin import GF, QQ, Matrix, kron_identity_matmul
from cobarlab.resolve import (
    MinimalCoresolution,
    _coradical_order,
    _one_step,
    _socle_retraction,
    betti_dims,
    dualize_to_contramodule_resolution,
    minimal_coresolution,
    verify_contramodule_resolution,
    verify_coresolution,
)


def test_cofree_comodules_resolve_in_one_term():
    c = dual_numbers_dual()
    m = cofree_comodule(c, 2)
    r = minimal_coresolution(m, 3)
    assert betti_dims(r) == [2, 0, 0, 0]
    assert verify_coresolution(r)


def test_ground_field_over_divided_line():
    c = divided_line()
    r = minimal_coresolution(trivial_comodule(c), 4)
    assert betti_dims(r) == [1, 1, 1, 1, 1]
    assert verify_coresolution(r)


def test_ground_field_over_square_zero_dual():
    c = dual_numbers_dual()
    r = minimal_coresolution(trivial_comodule(c), 5)
    assert betti_dims(r) == [1, 1, 1, 1, 1, 1]


def test_betti_match_cobar_table_for_flat_tensor_square():
    c = flatten(tensor_coalgebra(2, 2, QQ))
    r = minimal_coresolution(trivial_comodule(c), 3)
    dims = betti_dims(r)
    assert dims == ext_table(build_cobar(c, 3)).dims()
    assert dims == ext_table(build_cobar(opposite(c), 3)).dims()
    assert verify_coresolution(r)


def test_flat_symmetric_prefix():
    c = flatten(symmetric_coalgebra(2, 4, QQ))
    r = minimal_coresolution(trivial_comodule(c), 2)
    assert betti_dims(r) == [1, 2, 7]


def test_randomized_retractions_do_not_change_dims():
    c = flatten(tensor_coalgebra(2, 2, QQ))
    m = trivial_comodule(c)
    reference = betti_dims(minimal_coresolution(m, 3))
    for seed in range(5):
        rng = random.Random(991 + seed)
        r = minimal_coresolution(m, 3, rng=rng)
        assert betti_dims(r) == reference
        assert verify_coresolution(r)


def test_coefficient_comodule_agrees_with_cobar():
    c = divided_line()
    m = extension_comodule(c, (QQ.zero, QQ.one, QQ.zero))
    r = minimal_coresolution(m, 3)
    assert betti_dims(r) == ext_table(cobar_with_coefficients(c, m, 3)).dims()
    assert verify_coresolution(r)


def test_non_conilpotent_base_rejected():
    one = QQ.one
    two = QQ.from_int(2)
    comul = [
        ((0, 0, one), (1, 1, two)),
        ((0, 1, one), (1, 0, one)),
        ((2, 2, one),),
    ]
    c = Coalgebra(QQ, 3, 2, (one, QQ.zero, one), comul)
    with pytest.raises(ValueError):
        minimal_coresolution(trivial_comodule(c), 2)


def test_invalid_target_comodule_is_refused_before_the_first_step():
    c = divided_line()
    bad = extension_comodule(c, (QQ.zero, QQ.zero, QQ.one))  # not primitive: coassociativity fails
    with pytest.raises(ValueError, match="target failed comodule validation: coassociative"):
        minimal_coresolution(bad, 2)


def test_a_failed_base_is_worded_by_its_flags_and_notes():
    with pytest.raises(ValueError, match=r"base failed validation: conilpotent \(filtration stabilizes at step 0"):
        minimal_coresolution(trivial_comodule(path_dual()), 2)


def test_a_failed_cokernel_names_the_failed_flag(monkeypatch):
    # the target passes; every later check, the cokernel's, reports counital false
    calls = []

    def patched(m):
        calls.append(m)
        report = validate_comodule(m)
        return report if len(calls) == 1 else ValidationReport(dict(report.flags, counital=False))

    monkeypatch.setattr(resolve, "validate_comodule", patched)
    with pytest.raises(AssertionError, match="^cokernel coaction failed validation: counital$"):
        minimal_coresolution(trivial_comodule(divided_line()), 2)


def test_betti_requires_minimality_flag():
    c = dual_numbers_dual()
    r = minimal_coresolution(trivial_comodule(c), 1)
    fake = MinimalCoresolution(r.base, r.target, r.cogenerator_dims, r.embeddings, r.differentials, False)
    with pytest.raises(ValueError):
        betti_dims(fake)


def test_dualized_resolution_preserves_dims_and_exactness():
    c = divided_line()
    r = minimal_coresolution(trivial_comodule(c), 3)
    cr = dualize_to_contramodule_resolution(r)
    assert contramodule_ext_dims(cr) == betti_dims(r)
    assert verify_contramodule_resolution(cr, r.target.dim)
    assert all(d.nrows == e.ncols and d.ncols == e.nrows for d, e in zip(cr.differentials, r.differentials))


def test_dualized_cofree_resolution_is_free_cover():
    c = dual_numbers_dual()
    m = cofree_comodule(c, 1)
    cr = dualize_to_contramodule_resolution(minimal_coresolution(m, 1))
    assert contramodule_ext_dims(cr) == [1, 0]
    assert verify_contramodule_resolution(cr, m.dim)


def _sym3_and_rescaled():
    sym3 = flatten(symmetric_coalgebra(2, 3, QQ))
    rng = random.Random(20260818)
    factors = [QQ.one]
    factors += [Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(2, 9)) for _ in range(sym3.dim - 1)]
    return sym3, rescaled(sym3, factors)


@pytest.mark.parametrize("seed", [None, 7, 20260819])
def test_socle_retraction_matches_per_unit_vector_solves(seed):
    for c in _sym3_and_rescaled():
        current = trivial_comodule(c)
        walk = None if seed is None else random.Random(seed)
        for step in range(4):
            s = socle(current)
            if walk is None:
                assert _socle_retraction(current, s) == per_unit_socle_retraction(current, s.to_rows())
            else:
                ours, reference = random.Random(), random.Random()
                ours.setstate(walk.getstate())
                reference.setstate(walk.getstate())
                assert _socle_retraction(current, s, ours) == per_unit_socle_retraction(current, s.to_rows(), reference)
            _, _, _, current = _one_step(current, _coradical_order(c), walk, step < 3)


def test_seeded_coresolution_has_no_float_entries():
    for c in _sym3_and_rescaled():
        r = minimal_coresolution(trivial_comodule(c), 3, random.Random(5))
        assert betti_dims(r) == [1, 2, 6, 14]
        for m in r.embeddings + r.differentials:
            assert m.entries and all(type(v) in (int, Fraction) for v in m.entries.values())


def test_seeded_coresolution_matches_field_arithmetic_rref(monkeypatch):
    c = flatten(symmetric_coalgebra(2, 3, QQ))
    ours = minimal_coresolution(trivial_comodule(c), 3, random.Random(7))

    def reference_rref(rows, p):
        width = max(chain.from_iterable(rows), default=-1) + 1
        return field_rref(QQ if p is None else GF(p), rows, width)

    monkeypatch.setattr(exactlin, "_rref", reference_rref)
    reference = minimal_coresolution(trivial_comodule(c), 3, random.Random(7))
    assert betti_dims(ours) == betti_dims(reference) == [1, 2, 6, 14]
    assert ours.embeddings == reference.embeddings
    assert ours.differentials == reference.differentials


def test_every_recheck_runs_on_the_seeded_length_five_run(monkeypatch):
    c = flatten(symmetric_coalgebra(2, 4, QQ))
    validated, multiplied = [], []

    def counting_validate(m):
        validated.append(m.dim)
        return validate_comodule(m)

    def recording_product(a, b, y):
        multiplied.append(b)
        return kron_identity_matmul(a, b, y)

    monkeypatch.setattr(resolve, "validate_comodule", counting_validate)
    monkeypatch.setattr(resolve, "kron_identity_matmul", recording_product)
    r = minimal_coresolution(trivial_comodule(c), 5, random.Random(7))
    assert betti_dims(r) == [1, 2, 7, 17, 52, 137]
    # the morphism recheck multiplies each step's embedding by the coaction
    assert len(r.embeddings) == 6 and all(any(b is e for b in multiplied) for e in r.embeddings)
    # the target, then each of the five cokernels: dim C (x) V_i minus the dim embedded
    cokernels = [1]
    for v in r.cogenerator_dims[:-1]:
        cokernels.append(c.dim * v - cokernels[-1])
    assert validated == cokernels
    assert verify_coresolution(r)


def test_seeded_embeddings_stay_within_five_times_the_unseeded_fill_in():
    k = trivial_comodule(flatten(symmetric_coalgebra(2, 4, QQ)))
    unseeded = [e.nnz() for e in minimal_coresolution(k, 4).embeddings]
    for seed in range(1, 11):
        seeded = [e.nnz() for e in minimal_coresolution(k, 4, random.Random(seed)).embeddings]
        assert all(s <= 5 * u for s, u in zip(seeded, unseeded)), (seed, seeded, unseeded)
