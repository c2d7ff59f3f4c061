"""Minimal cofree coresolutions of comodules and their vector-space duals.

Each step embeds the current comodule M into the cofree comodule C (x) V on
V = socle(M): any linear retraction phi of M onto its socle induces the
comodule morphism (id (x) phi) o nu under the cofree adjunction, and that
morphism is injective and restricts to an isomorphism of socles.  Passing to
the cokernel and repeating yields a coresolution whose socle differentials
vanish, so the cogenerator dimensions are independent of the retraction
choices; for M = k they are the Ext dimensions of the coalgebra.

Each cokernel basis comes from one echelon form of the image, with the C
factors of C (x) V in descending coradical degree: each image vector pivots
on its top-degree term and the quotient keeps the sparse low-degree
coordinates, so random retractions do not fill in the later steps.

Dualizing a finite coresolution termwise gives a resolution by free modules
over the dual algebra; minimality survives transposition, so the same
dimension list is read off the dual side.
"""

from __future__ import annotations

from cobarlab.coalg import Comodule, regular_comodule, socle, validate, validate_comodule
from cobarlab.exactlin import Matrix, kron_identity_matmul, quotient_maps


class MinimalCoresolution:
    __slots__ = ("base", "target", "cogenerator_dims", "embeddings", "differentials", "minimal")

    def __init__(self, base, target, cogenerator_dims, embeddings, differentials, minimal):
        self.base = base
        self.target = target  # the Comodule resolved
        self.cogenerator_dims = cogenerator_dims
        self.embeddings = embeddings  # step embeddings f_i: (i-th cokernel) -> C (x) V_i
        self.differentials = differentials  # d_i: J_{i-1} -> J_i, each f_i composed with a projection
        self.minimal = minimal


class ContramoduleResolution:
    __slots__ = ("cogenerator_dims", "augmentation", "differentials", "minimal")

    def __init__(self, cogenerator_dims, augmentation, differentials, minimal):
        self.cogenerator_dims = cogenerator_dims
        self.augmentation = augmentation  # transpose of the first embedding: P_0 -> M dual
        self.differentials = differentials  # transposes, arrows reversed: P_i -> P_{i-1}
        self.minimal = minimal


def _socle_retraction(m, s, rng=None):
    """A matrix phi with phi restricted to the socle the identity in its basis.

    ``s`` holds a basis of the socle as its rows.  The deterministic choice
    is the solution of s @ phi^T = I with zero free variables: one reduced
    row echelon form of [s | I] (``solve_columns``) carries every unit vector
    at once, and its uniqueness makes phi the same as solving for each unit
    vector alone.  A generator adds a random correction vanishing on the
    socle: each row of phi gains at most two rows, signed +-1, of the
    projection onto M / socle.  This exercises the independence of the
    output from the choice; the cokernel basis of ``_cokernel_maps`` keeps
    the later steps sparse under it.
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


def _coradical_order(c):
    """The basis indices of c by descending coradical degree, ties by index.

    The degree of e_t is the least m with the m-fold reduced comultiplication
    of e_t zero.  It is iterated on the first tensor factor with exact
    cancellation: in a sheared basis a vector can occur in its own reduced
    comultiplication and cancel later, so a walk over the support would not
    end.  On a conilpotent c the iteration stops within c.dim rounds.
    """
    f = c.field
    red = c.reduced_comul()
    degree = {c.grouplike_index: 0}
    for k, t in enumerate(c.positive_indices()):
        vec = {(k,): f.one}
        for m in range(1, c.dim + 1):
            nxt = {}
            for (head, *tail), x in vec.items():
                for i, j, v in red[head]:
                    key = (i, j, *tail)
                    nxt[key] = f.add(nxt.get(key, f.zero), f.mul(x, v))
            vec = {key: x for key, x in nxt.items() if x}
            if not vec:
                break
        degree[t] = m
    return sorted(range(c.dim), key=lambda t: (-degree[t], t))


def _cokernel_maps(emb, v, order):
    """``quotient_maps`` of the image of emb in C (x) V, with the C factors taken in ``order``."""
    f, n, q = emb.field, emb.nrows, emb.nrows - emb.ncols
    cols = [t * v + r for t in order for r in range(v)]  # column k of the span is coordinate cols[k]
    where = {col: k for k, col in enumerate(cols)}
    proj, section = quotient_maps(Matrix(f, emb.ncols, n, {(i, where[r]): x for (r, i), x in emb.entries.items()}))
    proj = Matrix(f, q, n, {(a, cols[k]): x for (a, k), x in proj.entries.items()})
    return proj, Matrix(f, n, q, {(cols[k], b): x for (k, b), x in section.entries.items()})


def _one_step(m, order, rng=None, need_cokernel=True):
    """Embed m into the cofree comodule on its socle; return (v, f, projection, cokernel).

    ``order`` is ``_coradical_order`` of the base.  The coaction of
    C (x) V is comul (x) I_v in Kronecker order, so it is applied by
    ``kron_identity_matmul`` and never built.  The embedding is rechecked to
    be a comodule morphism and the cokernel's coaction to validate.
    """
    c = m.base
    n = m.dim
    s = socle(m)
    v = s.nrows
    if v == 0 and n > 0:
        raise AssertionError("nonzero comodule with zero socle contradicts conilpotence")
    phi = _socle_retraction(m, s, rng)
    nu = m.coaction_matrix()
    emb = kron_identity_matmul(c.dim, phi, nu)
    if emb.rank() != n:
        raise AssertionError("cofree hull embedding failed to be injective")
    mu = c.comul_matrix()
    if not (kron_identity_matmul(mu, v, emb) == kron_identity_matmul(c.dim, emb, nu)):
        raise AssertionError("hull embedding is not a comodule morphism")
    if not need_cokernel:
        return v, emb, None, None
    proj, section = _cokernel_maps(emb, v, order)
    nu_q = kron_identity_matmul(c.dim, proj, kron_identity_matmul(mu, v, section))
    quotient = Comodule.from_coaction_matrix(c, c.dim * v - n, nu_q)
    report = validate_comodule(quotient)
    if not report.ok:
        raise AssertionError("cokernel coaction failed validation: %s" % report.reasons)
    return v, emb, proj, quotient


def minimal_coresolution(m, length, rng=None):
    """Resolve a comodule by cofree comodules through the given length.

    The base must validate as a conilpotent coalgebra and m as a comodule.
    Passing a random.Random makes the retraction choices random; the
    cogenerator dimensions do not depend on them.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    report = validate(m.base)
    if not report.ok:
        raise ValueError("coresolution base failed validation: %s" % report.reasons)
    report = validate_comodule(m)
    if not report.ok:
        raise ValueError("coresolution target failed comodule validation: %s" % report.reasons)
    order = _coradical_order(m.base)
    dims = []
    embeddings = []
    differentials = []
    current = m
    prev_proj = None
    for step in range(length + 1):
        v, emb, proj, current = _one_step(current, order, rng, step < length)
        dims.append(v)
        embeddings.append(emb)
        if prev_proj is not None:
            differentials.append(emb @ prev_proj)
        prev_proj = proj
    return MinimalCoresolution(m.base, m, tuple(dims), tuple(embeddings), tuple(differentials), True)


def betti_dims(r):
    """The cogenerator dimension list; for m = k these are Ext dimensions."""
    if not r.minimal:
        raise ValueError("betti dimensions are only defined for minimal resolutions")
    return list(r.cogenerator_dims)


def _exact(maps):
    """Whether each maps[i + 1] composes with maps[i] to zero and its kernel is the image of maps[i], by ranks.

    Two maps whose shapes do not compose make the sequence not exact.
    """
    for before, after in zip(maps, maps[1:]):
        if after.ncols != before.nrows or not (after @ before).is_zero():
            return False
        if before.nrows - after.rank() != before.rank():
            return False
    return True


def verify_coresolution(r):
    """Recheck exactness, the comodule property, and vanishing socle differentials.

    Term i is C (x) V_i with coaction comul (x) I_(v_i), applied by
    ``kron_identity_matmul``; its reduced coaction is the regular one
    (x) I_(v_i), so its socle is the socle of C tensored with V_i.
    """
    c = r.base
    f = c.field
    vdims = r.cogenerator_dims
    mu = c.comul_matrix()
    maps = [r.embeddings[0]] + list(r.differentials)
    if maps[0].rank() != r.target.dim:
        return False
    for i, d in enumerate(maps):
        src_dim = r.target.dim if i == 0 else c.dim * vdims[i - 1]
        if d.nrows != c.dim * vdims[i] or d.ncols != src_dim:
            return False
    if not _exact(maps):
        return False
    socle_c = socle(regular_comodule(c)).transpose()
    for i in range(1, len(maps)):
        v = vdims[i - 1]
        socle_i = kron_identity_matmul(socle_c, v, Matrix.identity(f, socle_c.ncols * v))
        if not (maps[i] @ socle_i).is_zero():
            return False
        nu_src = kron_identity_matmul(mu, v, Matrix.identity(f, c.dim * v))
        if not (kron_identity_matmul(mu, vdims[i], maps[i]) == kron_identity_matmul(c.dim, maps[i], nu_src)):
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
    if cr.augmentation.rank() != target_dim:
        return False
    return _exact([cr.augmentation, *cr.differentials][::-1])
