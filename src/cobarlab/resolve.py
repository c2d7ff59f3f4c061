"""Minimal cofree coresolutions of comodules and their vector-space duals.

Each step embeds the current comodule M into the cofree comodule C (x) V on
V = socle(M): any linear retraction phi of M onto its socle induces the
comodule morphism (id (x) phi) o nu under the cofree adjunction, and that
morphism is injective and restricts to an isomorphism of socles.  Passing to
the cokernel and repeating yields a coresolution whose socle differentials
vanish, so the cogenerator dimensions are independent of the retraction
choices; for M = k they are the Ext dimensions of the coalgebra.

Dualizing a finite coresolution termwise gives a resolution by free modules
over the dual algebra; minimality survives transposition, so the same
dimension list is read off the dual side.
"""

from __future__ import annotations

from dataclasses import dataclass

from cobarlab.coalg import (
    Comodule,
    cofree_comodule,
    reduced_coaction_matrix,
    validate,
    validate_comodule,
)
from cobarlab.exactlin import Matrix, kron_identity_matmul, quotient_maps


@dataclass(frozen=True)
class MinimalCoresolution:
    base: object
    target: Comodule
    cogenerator_dims: tuple
    embeddings: tuple  # step embeddings f_i: (i-th cokernel) -> C (x) V_i
    differentials: tuple  # d_i: J_{i-1} -> J_i, each f_i composed with a projection
    minimal: bool
    # rechecks skipped above the size bound: dicts with step, check, size, bound
    skipped_checks: tuple = ()


@dataclass(frozen=True)
class ContramoduleResolution:
    cogenerator_dims: tuple
    augmentation: object  # transpose of the first embedding: P_0 -> M dual
    differentials: tuple  # transposes, arrows reversed: P_i -> P_{i-1}
    minimal: bool

    def ext_dims(self):
        """Ext dimensions against the ground field, read off minimality."""
        if not self.minimal:
            raise ValueError("ext dimensions require a minimal resolution")
        return list(self.cogenerator_dims)


def _socle_retraction(m, s, rng=None):
    """A matrix phi with phi restricted to the socle the identity in its basis.

    ``s`` holds a basis of the socle as its rows.  The deterministic choice
    is the solution of s @ phi^T = I with zero free variables: one reduced
    row echelon form of [s | I] (``solve_columns``) carries every unit vector
    at once, and its uniqueness makes phi the same as solving for each unit
    vector alone.  A generator adds a sparse random correction vanishing on
    the socle, which exercises the independence of the output from this
    choice.  Dense corrections would fill in every later step, so each row
    gets at most three entries.
    """
    f = m.base.field
    n = m.dim
    v = s.nrows
    phi = s.solve_columns(Matrix.identity(f, v))
    if phi is None:
        raise AssertionError("socle basis is not independent")
    phi = phi.transpose()
    if rng is not None and v < n:
        proj, _ = quotient_maps(s)
        w = n - v
        items = []
        for r in range(v):
            for c in rng.sample(range(w), rng.randrange(0, min(w, 2) + 1)):
                items.append((r, c, f.from_int(rng.choice((-1, 1)))))
        phi = phi + Matrix.from_entries(f, v, w, items) @ proj
    return phi


def _one_step(m, rng=None, need_cokernel=True, check_bound=200000, skipped=None):
    """Embed m into the cofree comodule on its socle; return (v, f, projection, cokernel).

    The morphism and cokernel rechecks are defensive and skipped when the
    product size (base dimension times nnz) exceeds check_bound, where their
    products dominate the whole computation.  Each skip is appended to
    ``skipped`` as a dict naming the check, the size and the bound.
    """
    c = m.base
    n = m.dim

    def recheck(check, nnz):
        size = c.dim * nnz
        if size <= check_bound:
            return True
        if skipped is not None:
            skipped.append({"check": check, "size": size, "bound": check_bound})
        return False

    s = reduced_coaction_matrix(m).kernel_matrix().transpose()  # socle basis as rows
    v = s.nrows
    if v == 0 and n > 0:
        raise AssertionError("nonzero comodule with zero socle contradicts conilpotence")
    phi = _socle_retraction(m, s, rng)
    nu = m.coaction_matrix()
    emb = kron_identity_matmul(c.dim, phi, nu)
    if emb.rank() != n:
        raise AssertionError("cofree hull embedding failed to be injective")
    j = cofree_comodule(c, v)
    nu_j = j.coaction_matrix()
    if recheck("morphism", emb.nnz()) and not (nu_j @ emb == kron_identity_matmul(c.dim, emb, nu)):
        raise AssertionError("hull embedding is not a comodule morphism")
    if not need_cokernel:
        return v, emb, None, None
    proj, section = quotient_maps(emb.transpose())
    q = j.dim - n
    nu_q = kron_identity_matmul(c.dim, proj, nu_j) @ section
    quotient = Comodule.from_coaction_matrix(c, q, nu_q)
    if recheck("cokernel", nu_q.nnz()):
        report = validate_comodule(quotient)
        if not report.ok:
            raise AssertionError("cokernel coaction failed validation: %s" % (report.notes,))
    return v, emb, proj, quotient


def minimal_coresolution(m, length, rng=None):
    """Resolve a comodule by cofree comodules through the given length.

    The base must validate as a conilpotent coalgebra and m as a comodule.
    Passing a random.Random makes the retraction choices random; the
    cogenerator dimensions do not depend on them.  The rechecks that
    ``_one_step`` skips by its size bound are listed in ``skipped_checks``
    with their step.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    report = validate(m.base)
    if not report.ok:
        raise ValueError("coresolution base failed validation: %s" % (report.notes,))
    failed = validate_comodule(m).failed
    if failed:
        raise ValueError("coresolution target failed comodule validation: %s" % ", ".join(failed))
    dims = []
    embeddings = []
    differentials = []
    current = m
    prev_proj = None
    skipped = []
    for step in range(length + 1):
        found = []
        v, emb, proj, current = _one_step(current, rng, step < length, skipped=found)
        skipped.extend({"step": step, **skip} for skip in found)
        dims.append(v)
        embeddings.append(emb)
        if prev_proj is not None:
            differentials.append(emb @ prev_proj)
        prev_proj = proj
    return MinimalCoresolution(m.base, m, tuple(dims), tuple(embeddings), tuple(differentials), True, tuple(skipped))


def betti_dims(r):
    """The cogenerator dimension list; for m = k these are Ext dimensions."""
    if not r.minimal:
        raise ValueError("betti dimensions are only defined for minimal resolutions")
    return list(r.cogenerator_dims)


def verify_coresolution(r):
    """Recheck exactness, the comodule property, and vanishing socle differentials."""
    c = r.base
    terms = [cofree_comodule(c, v) for v in r.cogenerator_dims]
    maps = [r.embeddings[0]] + list(r.differentials)
    if maps[0].rank() != r.target.dim:
        return False
    for i, d in enumerate(maps):
        src_dim = r.target.dim if i == 0 else terms[i - 1].dim
        if d.nrows != terms[i].dim or d.ncols != src_dim:
            return False
    for i in range(1, len(maps)):
        if not (maps[i] @ maps[i - 1]).is_zero():
            return False
        ker_dim = maps[i - 1].nrows - maps[i].rank()
        if ker_dim != maps[i - 1].rank():
            return False
    for i in range(1, len(maps)):
        j = terms[i - 1]
        if not (maps[i] @ reduced_coaction_matrix(j).kernel_matrix()).is_zero():
            return False
        nu_src = j.coaction_matrix()
        nu_dst = terms[i].coaction_matrix()
        if not (nu_dst @ maps[i] == kron_identity_matmul(c.dim, maps[i], nu_src)):
            return False
    return True


def dualize_to_contramodule_resolution(r):
    """Transpose a finite coresolution into a resolution over the dual algebra.

    Duality of finite-dimensional exact sequences preserves exactness, and
    the socle condition transposes to the radical condition, so minimality
    and the dimension list carry over unchanged.
    """
    return ContramoduleResolution(
        r.cogenerator_dims,
        r.embeddings[0].transpose(),
        tuple(d.transpose() for d in r.differentials),
        r.minimal,
    )


def verify_contramodule_resolution(cr, target_dim):
    """Exactness of the dualized complex, checked by ranks.

    The chain runs P_n -> ... -> P_1 -> P_0 -> M dual; the augmentation must
    be surjective and each kernel must match the incoming image.
    """
    chain = [cr.augmentation] + list(cr.differentials)
    if cr.augmentation.rank() != target_dim:
        return False
    for i in range(1, len(chain)):
        outgoing, incoming = chain[i - 1], chain[i]
        if not (outgoing @ incoming).is_zero():
            return False
        if outgoing.ncols - outgoing.rank() != incoming.rank():
            return False
    return True
