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


def _replaced(r, dims=None, embedding=None, differentials=None):
    """r with its cogenerator dims, first embedding or differentials replaced."""
    return MinimalCoresolution(
        r.base,
        r.target,
        r.cogenerator_dims if dims is None else dims,
        r.embeddings if embedding is None else (embedding,) + r.embeddings[1:],
        r.differentials if differentials is None else differentials,
        r.minimal,
    )


def _with_cofree_summand(r):
    """r with C (x) k added to J_0 and J_1 and carried across by the identity.

    Still exact, and every map is a comodule map, but d_1 is the identity
    on the socle g (x) k of the new summand, so it is not minimal.  Index
    c*v + j of C (x) V moves to c*(v+1) + j, and the summand sits at
    c*(v+1) + v.
    """
    n = r.base.dim
    v0, v1 = r.cogenerator_dims[:2]

    def widen(m, rows, cols):
        def move(k, v):
            return k if v is None else k // v * (v + 1) + k % v

        nrows = m.nrows if rows is None else n * (rows + 1)
        ncols = m.ncols if cols is None else n * (cols + 1)
        return Matrix(m.field, nrows, ncols, {(move(i, rows), move(j, cols)): x for (i, j), x in m.entries.items()})

    d1, d2, *rest = r.differentials
    d1 = widen(d1, v1, v0)
    summand = {(c * (v1 + 1) + v1, c * (v0 + 1) + v0): d1.field.one for c in range(n)}
    d1 = Matrix(d1.field, d1.nrows, d1.ncols, {**d1.entries, **summand})
    dims = (v0 + 1, v1 + 1, *r.cogenerator_dims[2:])
    return _replaced(r, dims, widen(r.embeddings[0], v0, None), (d1, widen(d2, None, v1), *rest))


def _broken_coresolutions(r):
    """{name: r with one defect}; each must fail ``verify_coresolution``."""
    f = r.base.field
    e0 = r.embeddings[0]
    d1, d2, *rest = r.differentials
    # d_1 is zero on the image of the first embedding, the socle; an entry set there breaks d_1 e_0 = 0
    col = min(row for row, _ in e0.entries)
    n = d1.nrows
    # reversing the rows of J_1, and undoing it in d_2, keeps the sequence exact but is no comodule map
    flip = Matrix(f, n, n, {(n - 1 - k, k): f.one for k in range(n)})
    return {
        "zeroed_embedding": _replaced(r, embedding=Matrix.zeros(f, e0.nrows, e0.ncols)),
        "wrong_shape": _replaced(r, differentials=(Matrix(f, n, d1.ncols + 1, d1.entries), d2, *rest)),
        "changed_entry": _replaced(r, differentials=(Matrix(f, n, d1.ncols, {**d1.entries, (0, col): f.one}), d2, *rest)),
        "zeroed_d2": _replaced(r, differentials=(d1, Matrix.zeros(f, d2.nrows, d2.ncols), *rest)),
        "permuted_rows": _replaced(r, differentials=(flip @ d1, d2 @ flip, *rest)),
        "cofree_summand": _with_cofree_summand(r),
    }


def _doubled_d2(r):
    f = r.base.field
    d1, d2, *rest = r.differentials
    doubled = Matrix(f, d2.nrows, d2.ncols, {k: f.add(v, v) for k, v in d2.entries.items()})
    return _replaced(r, differentials=(d1, doubled, *rest))


_MUTATED_BASES = {"divided_line": divided_line, "ten22": lambda: flatten(tensor_coalgebra(2, 2, QQ))}


@pytest.mark.parametrize("which", sorted(_MUTATED_BASES))
def test_verify_coresolution_refuses_each_defect(which):
    r = minimal_coresolution(trivial_comodule(_MUTATED_BASES[which]()), 3)
    assert verify_coresolution(r)
    for name, broken in _broken_coresolutions(r).items():
        assert verify_coresolution(broken) is False, name
    # a rescaled differential is still an exact, minimal complex of comodule maps
    assert verify_coresolution(_doubled_d2(r))


@pytest.mark.parametrize("which", sorted(_MUTATED_BASES))
def test_verify_contramodule_resolution_refuses_each_broken_dual(which):
    r = minimal_coresolution(trivial_comodule(_MUTATED_BASES[which]()), 3)
    broken = _broken_coresolutions(r)
    # the check reads exactness by ranks only, so the permuted rows and the cofree summand, both exact, do not apply
    for name in ("zeroed_embedding", "changed_entry", "zeroed_d2", "wrong_shape"):
        assert verify_contramodule_resolution(dualize_to_contramodule_resolution(broken[name]), 1) is False, name
    assert verify_contramodule_resolution(dualize_to_contramodule_resolution(_doubled_d2(r)), 1)


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
