"""The comodule side's index-arithmetic kernels against their per-basis and renormalizing references."""

import pytest

from helpers_coalgebras import (
    acceptance_corpus,
    comul_triples,
    divided_line,
    per_basis_comodule_ext_dims,
    per_basis_hom_differential,
    permuted,
    rescaled,
    sheared,
)

import cobarlab.coalg
from cobarlab.coalg import (
    Comodule,
    cofree_comodule,
    extension_comodule,
    flatten,
    regular_comodule,
    symmetric_coalgebra,
    trivial_comodule,
)
from cobarlab.dualalg import _hom_differential, comodule_ext_dims
from cobarlab.exactlin import GF, QQ, Matrix
from cobarlab.resolve import minimal_coresolution

FIELDS = [QQ, GF(7)]
N = 3


def _primitive(c, coeffs):
    """A combination of the degree-1 basis vectors of a flattened coalgebra: primitive elements."""
    ones = [t for t in range(c.dim) if c.degrees[t] == 1]
    vec = [c.field.zero] * c.dim
    for t, x in zip(ones, coeffs * len(ones)):
        vec[t] = c.field.from_int(x)
    return vec


def _pairs(c):
    k, reg = trivial_comodule(c), regular_comodule(c)
    ext_a = extension_comodule(c, _primitive(c, [1, 2]))
    ext_b = extension_comodule(c, _primitive(c, [3, -1]), scale=2)
    return {
        "k,k": (k, k),
        "regular,k": (reg, k),
        "k,regular": (k, reg),
        "regular,regular": (reg, reg),
        "ext,k": (ext_a, k),
        "k,ext": (k, ext_b),
        "ext,ext": (ext_a, ext_b),
    }


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(acceptance_corpus()))
def test_comodule_ext_dims_equal_the_per_basis_reference(field, name):
    c = flatten(acceptance_corpus(field)[name])
    for label, (l, m) in _pairs(c).items():
        res = minimal_coresolution(m, N + 1)
        vdims = res.cogenerator_dims
        nu_l = l.coaction
        for i in range(N + 1):
            args = (c, res.differentials[i], nu_l, vdims[i], vdims[i + 1])
            assert _hom_differential(*args) == per_basis_hom_differential(*args), (label, i)
        assert comodule_ext_dims(c, l, m, N) == per_basis_comodule_ext_dims(c, l, m, N), label


def _variants(field):
    line = divided_line(field)
    sym = flatten(symmetric_coalgebra(2, 2, field))
    return {
        "permuted": permuted(sym, [3, 0, 5, 1, 4, 2]),
        "rescaled": rescaled(sym, [field.one] + [field.from_int(x) for x in (2, 3, 5, 6, 4)]),
        "rescaled_line": rescaled(line, [field.one, field.from_int(3), field.from_int(5)]),
        "sheared": sheared(line, 1, 2),
    }


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("variant", ["permuted", "rescaled", "rescaled_line", "sheared"])
def test_cofree_comodule_is_comul_tensor_identity_without_renormalizing(field, variant, monkeypatch):
    c = _variants(field)[variant]
    refs, comul = {}, comul_triples(c)
    for k in range(4):
        triples = [[(i, j * k + s, v) for i, j, v in comul[t]] for t in range(c.dim) for s in range(k)]
        refs[k] = Comodule(c, c.dim * k, triples)

    def renormalized(*args):
        raise AssertionError("cofree_comodule built its coaction from triples")

    monkeypatch.setattr(cobarlab.coalg, "_structure_matrix", renormalized)
    for k, ref in refs.items():
        j = cofree_comodule(c, k)
        assert j.dim == ref.dim
        assert j.coaction == ref.coaction
        assert j.coaction == Matrix.kron(c.comul, Matrix.identity(field, k))
