"""Small coalgebras shared across test modules."""

from cobarlab.coalg import Coalgebra, reduced_coaction_matrix, symmetric_coalgebra, tensor_coalgebra
from cobarlab.dualalg import Algebra, graded_dual, quadratic_algebra
from cobarlab.exactlin import QQ, Matrix, quotient_maps


def dual_numbers_dual(field=QQ):
    """Dim 2: grouplike g and a primitive x; the dual of k[x]/x^2."""
    one = field.one
    comul = [
        ((0, 0, one),),
        ((0, 1, one), (1, 0, one)),
    ]
    return Coalgebra(field, 2, 0, (one, field.zero), comul)


def divided_line(field=QQ):
    """Dim 3: g, x1, x2 with the deconcatenation pattern; the dual of k[x]/x^3."""
    one = field.one
    z = field.zero
    comul = [
        ((0, 0, one),),
        ((0, 1, one), (1, 0, one)),
        ((0, 2, one), (1, 1, one), (2, 0, one)),
    ]
    return Coalgebra(field, 3, 0, (one, z, z), comul)


def quad_dual(top, field=QQ):
    """Graded dual of the algebra on x, y with the one relation xy = 0, truncated at top."""
    xy = (field.zero, field.one, field.zero, field.zero)
    return graded_dual(quadratic_algebra(2, [xy], top, field))


def acceptance_corpus():
    """The six graded coalgebras of the acceptance battery."""
    return {
        "c2": tensor_coalgebra(1, 1, QQ),
        "c3": tensor_coalgebra(1, 2, QQ),
        "square_zero": tensor_coalgebra(2, 1, QQ),
        "ten22": tensor_coalgebra(2, 2, QQ),
        "sym24": symmetric_coalgebra(2, 4, QQ),
        "quad_dual": quad_dual(4),
    }


def permuted(c, perm):
    """The same coalgebra with basis index t renumbered perm[t], degrees carried along."""
    dim = c.dim
    comul = [None] * dim
    counit = [None] * dim
    for t in range(dim):
        comul[perm[t]] = [(perm[i], perm[j], v) for i, j, v in c.comul[t]]
        counit[perm[t]] = c.counit[t]
    degrees = None
    if c.degrees is not None:
        degrees = [None] * dim
        for t in range(dim):
            degrees[perm[t]] = c.degrees[t]
    return Coalgebra(c.field, dim, perm[c.grouplike_index], counit, comul, degrees)


def shifted_by_unit(a, k):
    """The same algebra in the basis e_t, except e_k replaced by e_k + unit; degrees kept as given.

    The augmentation of the new basis is no longer a coordinate vector when
    the old one was.
    """
    f = a.field
    basis = [[f.one if s == t else f.zero for s in range(a.dim)] for t in range(a.dim)]
    basis[k] = [f.add(u, e) for u, e in zip(a.unit, basis[k])]
    change = Matrix.from_columns(f, basis, a.dim)
    mult = [[change.solve(a.multiply(x, y)) for y in basis] for x in basis]
    aug = [sum((f.mul(e, v) for e, v in zip(a.augmentation, vec)), f.zero) for vec in basis]
    return Algebra(f, a.dim, change.solve(a.unit), mult, aug, a.degrees)


def strip_degrees(c):
    """Same coalgebra without degree metadata."""
    return Coalgebra(c.field, c.dim, c.grouplike_index, c.counit, c.comul, degrees=None)


def rescaled(c, factors):
    """The same coalgebra in the basis factors[t] * e_t (factor 1 on the grouplike).

    e'_t = x_t e_t has comultiplication constants v * x_t / (x_i * x_j) and
    counit x_t * eps(e_t), so non-integral factors give non-integral constants.
    """
    f = c.field
    comul = [
        tuple((i, j, f.div(f.mul(factors[t], v), f.mul(factors[i], factors[j]))) for i, j, v in triples)
        for t, triples in enumerate(c.comul)
    ]
    counit = [f.mul(x, e) for x, e in zip(factors, c.counit)]
    return Coalgebra(f, c.dim, c.grouplike_index, counit, comul, c.degrees)


def non_coassociative(scale=QQ.one):
    """Dim 4: g, x1, x2, x3 with reduced comultiplication x2 -> x1 (x) x1, x3 -> x1 (x) x2.

    Counital and coaugmented but not coassociative: on x3 the two iterated
    reduced comultiplications give 0 and x1 (x) x1 (x) x1.  ``scale``
    multiplies both reduced terms and keeps the defect.
    """
    one = QQ.one
    comul = [((0, 0, one),)]
    for t, extra in ((1, ()), (2, ((1, 1, scale),)), (3, ((1, 2, scale),))):
        comul.append(((0, t, one), (t, 0, one)) + extra)
    return Coalgebra(QQ, 4, 0, (one, QQ.zero, QQ.zero, QQ.zero), comul)


def kron_cobar_diff(c, i, m=None):
    """Reference d: term i -> term i+1 of the reduced cobar complex, by Kronecker products.

    The sum over slots t = 1..i of (-1)^(t+1) I (x) reduced comul (x) I on
    (C_+)^(x i) (x) M, plus (-1)^i I (x) reduced coaction when M is given.
    """
    f = c.field
    d = c.dim - 1
    mdim = 1 if m is None else m.dim
    reduced = c.reduced_comul_matrix()
    out = Matrix.zeros(f, d ** (i + 1) * mdim, d**i * mdim)
    for t in range(1, i + 1):
        ins = Matrix.kron(Matrix.identity(f, d ** (t - 1)), Matrix.kron(reduced, Matrix.identity(f, d ** (i - t) * mdim)))
        out = out + (ins if t % 2 == 1 else -ins)
    if m is not None:
        last = Matrix.kron(Matrix.identity(f, d**i), reduced_coaction_matrix(m))
        out = out + (last if i % 2 == 0 else -last)
    return out


def kron_bar_boundary(bar, i):
    """Reference d: B_i -> B_(i-1) of the reduced bar complex, by Kronecker products.

    The sum over t = 1..i-1 of (-1)^(t+1) I (x) reduced product (x) I on
    (A_+)^(x i), with the reduced product in slots t and t+1.
    """
    f = bar.f
    d = bar.d
    out = Matrix.zeros(f, d ** (i - 1), d**i)
    for t in range(1, i):
        ins = Matrix.kron(Matrix.identity(f, d ** (t - 1)), Matrix.kron(bar.reduced, Matrix.identity(f, d ** (i - 1 - t))))
        out = out + (ins if t % 2 == 1 else -ins)
    return out


def per_unit_socle_retraction(m, s, rng=None):
    """Reference socle retraction: one ``solve`` per socle unit vector.

    Row k of phi solves x @ phi[k]^T = e_k, where the rows of x are the socle
    vectors; the random correction draws from ``rng`` exactly as the
    coresolution does.
    """
    f = m.base.field
    n = m.dim
    v = s.dim
    x = Matrix.from_columns(f, [list(vec) for vec in s.vectors], n).transpose()
    cols = []
    for k in range(v):
        unit = [f.zero] * v
        unit[k] = f.one
        sol = x.solve(tuple(unit))
        assert sol is not None, "socle basis is not independent"
        cols.append(list(sol))
    phi = Matrix.from_columns(f, cols, n).transpose()
    if rng is not None and v < n:
        proj, _ = quotient_maps(s)
        w = n - v
        items = []
        for r in range(v):
            for c in rng.sample(range(w), rng.randrange(0, min(w, 2) + 1)):
                items.append((r, c, f.from_int(rng.choice((-1, 1)))))
        phi = phi + Matrix.from_entries(f, v, w, items) @ proj
    return phi


def per_column_bar_reduced(a):
    """Reference reduced product of the bar complex of an augmented algebra.

    Splits A = k (+) A_+ as the finite bar complex does and solves for each
    product of two augmentation-ideal basis vectors with its own ``solve``.
    """
    f = a.field
    n = a.dim
    pos = Matrix.from_entries(f, 1, n, [(0, i, v) for i, v in enumerate(a.augmentation)]).kernel_basis()
    into = Matrix.from_columns(f, [list(a.unit)] + [list(v) for v in pos.vectors], n)
    d = pos.dim
    items = []
    for c, (x, y) in enumerate((x, y) for x in pos.vectors for y in pos.vectors):
        sol = into.solve(a.multiply(x, y))
        assert sol is not None, "product of augmentation-ideal elements left the algebra"
        items.extend((r - 1, c, v) for r, v in enumerate(sol) if r >= 1)
    return Matrix.from_entries(f, d, d * d, items)
