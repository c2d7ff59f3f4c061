from __future__ import annotations

import random
from math import comb

import pytest

from helpers_coalgebras import (
    acceptance_corpus,
    comodule_hom_basis,
    componentwise_validate_graded,
    perturbed_graded,
    quad_dual,
    scaled,
    sheared,
    symmetric_to_tensor_embedding,
)

from cobarlab.coalg import (
    Coalgebra,
    Comodule,
    UnsupportedCharacteristic,
    coaugmentation_filtration,
    cofree_comodule,
    extension_comodule,
    flatten,
    opposite,
    regular_comodule,
    socle,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
    validate,
    validate_comodule,
    validate_graded,
)
from cobarlab.exactlin import GF, QQ, Matrix


def dual_numbers_dual(field=QQ):
    """C2: basis (g, x), x primitive."""
    return Coalgebra(field, 2, 0, [1, 0], [[(0, 0, 1)], [(0, 1, 1), (1, 0, 1)]])


def divided_line(field=QQ):
    """C3: basis (g, s1, s2), the coalgebra dual to k[x]/x^3."""
    return Coalgebra(
        field,
        3,
        0,
        [1, 0, 0],
        [[(0, 0, 1)], [(0, 1, 1), (1, 0, 1)], [(0, 2, 1), (1, 1, 1), (2, 0, 1)]],
    )


def semisimple_block_plus_point(field=QQ):
    """k + a 2-dim simple block (dual of the quadratic field extension)."""
    return Coalgebra(
        field,
        3,
        0,
        [1, 1, 0],
        [[(0, 0, 1)], [(1, 1, 1), (2, 2, 2)], [(1, 2, 1), (2, 1, 1)]],
    )


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_structure_constants_accumulate_cancel_and_name_the_basis_index(field):
    # repeated (i, j) accumulate, sums that cancel vanish, the rest is sorted
    comul = [[(0, 0, 1)], [(1, 0, 1), (0, 1, 1), (1, 0, 2), (0, 1, "1/2"), (1, 0, -3), (0, 1, "-1/2")]]
    c = Coalgebra(field, 2, 0, (1, 0), comul)
    assert c.comul == (((0, 0, 1),), ((0, 1, 1),))
    coaction = [[(1, 1, 2), (0, 0, 1), (1, 1, -2)], [(0, 1, 1), (1, 0, 3), (1, 0, 4), (0, 1, 0)]]
    m = Comodule(c, 2, coaction)
    assert m.coaction == (((0, 0, 1),), ((0, 1, 1), (1, 0, 7)) if field == QQ else ((0, 1, 1),))
    with pytest.raises(ValueError, match="^comultiplication index out of range at basis 1$"):
        Coalgebra(field, 2, 0, (1, 0), [[(0, 0, 1)], [(0, 1, 1), (2, 0, 1)]])
    # the first factor is bounded by the coalgebra, the second by the comodule
    with pytest.raises(ValueError, match="^coaction index out of range at basis 0$"):
        Comodule(c, 1, [[(0, 1, 1)]])
    with pytest.raises(ValueError, match="^coaction index out of range at basis 1$"):
        Comodule(c, 3, [[(0, 0, 1)], [(2, 1, 1)], []])


def test_comodule_from_its_coaction_matrix_round_trips():
    c = divided_line()
    # cofree on two generators, an extension with coefficient 5, and the ground field
    for m in (cofree_comodule(c, 2), extension_comodule(c, (0, 1, 0), scale=5), trivial_comodule(c)):
        nu = m.coaction_matrix()
        again = Comodule.from_coaction_matrix(c, m.dim, nu)
        assert again.coaction == m.coaction
        assert again.coaction_matrix() is nu and m.coaction_matrix() is nu
    with pytest.raises(ValueError, match="does not match"):
        Comodule.from_coaction_matrix(c, 2, Matrix.zeros(QQ, 5, 2))


def test_validate_c2_c3():
    for c in (dual_numbers_dual(), divided_line()):
        rep = validate(c)
        assert rep.ok
        assert rep.flags["cocommutative"]


def test_validate_counit_failure():
    c = Coalgebra(QQ, 2, 0, [1, 0], [[(0, 0, 1)], [(1, 1, 1)]])
    rep = validate(c)
    assert rep.flags["coassociative"]
    assert not rep.flags["counital"]
    assert not rep.ok
    assert "counital" in rep.notes
    assert rep.reasons == "counital (%s); conilpotent (%s)" % (rep.notes["counital"], rep.notes["conilpotent"])


def test_validate_non_conilpotent():
    c = semisimple_block_plus_point()
    rep = validate(c)
    assert rep.flags["coassociative"] and rep.flags["counital"] and rep.flags["coaugmented"]
    assert not rep.flags["conilpotent"]
    chain = coaugmentation_filtration(c)
    assert not chain.exhaustive
    assert chain.steps[-1].rank() == 1


def test_filtration_c2_c3():
    chain2 = coaugmentation_filtration(dual_numbers_dual())
    assert [s.rank() for s in chain2.steps] == [1, 2]
    assert chain2.exhaustive
    chain3 = coaugmentation_filtration(divided_line())
    assert [s.rank() for s in chain3.steps] == [1, 2, 3]
    assert chain3.exhaustive and chain3.stabilized_at == 2


def test_filtration_respects_comultiplication():
    # mu(F_m) lies inside sum_{p+q=m} F_p (x) F_q, for every step F_m of each input
    inputs = [
        divided_line(),
        flatten(symmetric_coalgebra(2, 3, QQ)),
        flatten(tensor_coalgebra(2, 2, QQ)),
        flatten(quad_dual(4)),
        sheared(flatten(symmetric_coalgebra(2, 3, QQ)), 1, 3),
        sheared(divided_line(), 1, 2),
    ]
    for c in inputs:
        chain = coaugmentation_filtration(c)
        assert chain.exhaustive
        steps = chain.steps
        mu = c.comul_matrix()
        for m, fm in enumerate(steps):
            # the columns of allowed are the vectors a (x) b, a a row of F_p and b one of F_q
            allowed = Matrix.hstack([steps[p].kron(steps[m - p]).transpose() for p in range(m + 1)])
            images = mu @ fm.transpose()
            assert Matrix.hstack([allowed, images]).rank() == allowed.rank()
            # F_m is nested in F_(m+1): stacking adds nothing to the rank of F_(m+1)
            if m + 1 < len(steps):
                nxt = steps[m + 1]
                assert Matrix.hstack([fm.transpose(), nxt.transpose()]).rank() == nxt.rank()


def test_tensor_coalgebra_dims():
    g = tensor_coalgebra(2, 3, QQ)
    assert list(g.dims) == [1, 2, 4, 8]
    assert validate_graded(g).ok
    assert not validate_graded(g).flags["cocommutative"]
    empty = tensor_coalgebra(0, 2, QQ)
    assert list(empty.dims) == [1, 0, 0]


def test_symmetric_coalgebra_dims_and_characteristic():
    g = symmetric_coalgebra(2, 4, QQ)
    assert list(g.dims) == [comb(2 + j - 1, j) for j in range(5)]
    assert validate_graded(g).ok
    assert validate_graded(g).flags["cocommutative"]
    line = symmetric_coalgebra(1, 3, QQ)
    assert list(line.dims) == [1, 1, 1, 1]
    assert list(symmetric_coalgebra(3, 2, QQ).dims) == [1, 3, 6]
    with pytest.raises(UnsupportedCharacteristic):
        symmetric_coalgebra(2, 2, GF(2))
    with pytest.raises(UnsupportedCharacteristic):
        symmetric_coalgebra(2, 5, GF(5))
    ok = symmetric_coalgebra(2, 4, GF(5))
    assert validate_graded(ok).ok


def test_validate_graded_fails_perturbed_components_as_finite_input_does():
    for name, g in perturbed_graded().items():
        rep = validate_graded(g)
        broken = "coassociative" if name.endswith("_entry") else "counital"
        assert broken in rep.failed, name
        assert rep.flags["conilpotent"] is False and rep.notes["conilpotent"] == "skipped: prior axiom failed", name
        assert "graded_metadata" not in rep.flags, name


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_validate_graded_agrees_with_the_componentwise_reference(field):
    perturbed = perturbed_graded(field)
    for name, g in {**acceptance_corpus(field), **perturbed}.items():
        ours, reference = validate_graded(g).flags, componentwise_validate_graded(g).flags
        for flag in ("coassociative", "counital", "cocommutative"):
            assert ours[flag] == reference[flag], (name, flag)
        assert (ours["coassociative"] and ours["counital"]) != (name in perturbed), name


def test_symmetric_embedding_intertwines():
    m, top = 2, 3
    sym = symmetric_coalgebra(m, top, QQ)
    ten = tensor_coalgebra(m, top, QQ)
    emb = symmetric_to_tensor_embedding(m, top, QQ)
    for j in range(top + 1):
        for p in range(j + 1):
            q = j - p
            left = ten.component(j, p, q) @ emb[j]
            right = Matrix.kron(emb[p], emb[q]) @ sym.component(j, p, q)
            assert left == right


def test_flatten_tensor_line_is_divided_line():
    c = flatten(tensor_coalgebra(1, 2, QQ))
    assert c == divided_line()
    c2 = flatten(symmetric_coalgebra(1, 2, QQ))
    assert c2 == divided_line()


def test_flatten_properties():
    g = symmetric_coalgebra(2, 4, QQ)
    c = flatten(g)
    assert c.dim == sum(g.dims)
    assert c.degrees_respected()
    rep = validate(c)
    assert rep.ok and rep.flags["graded_metadata"]
    chain = coaugmentation_filtration(c)
    partial = []
    total = 0
    for d in g.dims:
        total += d
        partial.append(total)
    assert [s.rank() for s in chain.steps] == partial


def test_flatten_two_primitives():
    c = flatten(symmetric_coalgebra(2, 1, QQ))
    assert c.dim == 3
    chain = coaugmentation_filtration(c)
    assert [s.rank() for s in chain.steps] == [1, 3]


def test_opposite_involutive_and_flags():
    c = flatten(tensor_coalgebra(2, 2, QQ))
    cop = opposite(c)
    assert opposite(cop) == c
    assert validate(cop).ok
    assert cop != c  # deconcatenation is not cocommutative
    g = tensor_coalgebra(2, 2, QQ)
    gop = opposite(g)
    assert validate_graded(gop).ok
    assert opposite(gop) == g
    s = symmetric_coalgebra(2, 3, QQ)
    assert opposite(s) == s


def test_socle_examples():
    c2 = dual_numbers_dual()
    assert socle(regular_comodule(c2)).rank() == 1
    # (1, 0) lies in the row space of the socle basis
    assert socle(regular_comodule(c2)).transpose().solve((QQ.one, QQ.zero)) is not None
    c3 = divided_line()
    assert socle(cofree_comodule(c3, 2)).rank() == 2
    assert socle(trivial_comodule(c3)).rank() == 1


def test_socle_nonzero_invariant():
    rng = random.Random(42)
    c = flatten(symmetric_coalgebra(2, 2, QQ))
    mu_d = c.reduced_comul_matrix()
    prim_d = mu_d.kernel_basis()
    keep = c.positive_indices()
    for _ in range(10):
        coeffs = [QQ.coerce(rng.randint(-3, 3)) for _ in range(prim_d.ncols)]
        w = [QQ.zero] * c.dim
        for coef, v in zip(coeffs, prim_d.columns()):
            for k, i in enumerate(keep):
                w[i] += coef * v[k]
        m = extension_comodule(c, w)
        assert validate_comodule(m).ok
        assert socle(m).rank() >= 1


def test_extension_comodule_needs_primitive():
    c3 = divided_line()
    w = [QQ.zero, QQ.zero, QQ.one]  # s2 is not primitive
    m = extension_comodule(c3, w)
    assert not validate_comodule(m).flags["coassociative"]


def test_comodule_hom_space_and_socle_injectivity():
    c = divided_line()
    m = regular_comodule(c)
    k = trivial_comodule(c)
    homs = comodule_hom_basis(k, m)
    assert len(homs) == socle(m).rank()
    rng = random.Random(11)
    l = extension_comodule(c, [QQ.zero, QQ.one, QQ.zero])
    basis = comodule_hom_basis(l, m)
    soc_l = socle(l)
    soc_cols = soc_l.transpose()
    for _ in range(25):
        f = Matrix.zeros(QQ, m.dim, l.dim)
        for b in basis:
            f = f + scaled(b, rng.randint(-2, 2))
        injective = f.rank() == l.dim
        socle_injective = (f @ soc_cols).rank() == soc_l.rank()
        assert injective == socle_injective


def test_regular_comodule_validates():
    for c in (dual_numbers_dual(), divided_line(), flatten(tensor_coalgebra(2, 2, QQ))):
        assert validate_comodule(regular_comodule(c)).ok
        assert validate_comodule(trivial_comodule(c)).ok
