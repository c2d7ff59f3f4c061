"""Small coalgebras shared across test modules."""

from collections import Counter
from functools import lru_cache
from itertools import chain
from operator import add
from types import SimpleNamespace

from cobarlab.coalg import (
    Coalgebra,
    Comodule,
    GradedCoalgebra,
    ValidationReport,
    _monomials,
    reduced_coaction_matrix,
    swap_matrix,
    symmetric_coalgebra,
    tensor_coalgebra,
)
from cobarlab.cobar import _automorphisms, ext_table
from cobarlab.dualalg import _BarComplex, Algebra, GradedAlgebra, ModulePresentation, graded_dual, quadratic_algebra
from cobarlab.exactlin import QQ, Matrix, kron_identity_matmul
from cobarlab.resolve import minimal_coresolution
from cobarlab.witness import EventuallyConstant, HomToQ, QElement, SubringElement, TaggedCofunctional, TaggedLinearMap, contraaction


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


def acceptance_corpus(field=QQ):
    """The six graded coalgebras of the acceptance battery, over QQ unless a field of characteristic > 4 is given."""
    return {
        "c2": tensor_coalgebra(1, 1, field),
        "c3": tensor_coalgebra(1, 2, field),
        "square_zero": tensor_coalgebra(2, 1, field),
        "ten22": tensor_coalgebra(2, 2, field),
        "sym24": symmetric_coalgebra(2, 4, field),
        "quad_dual": quad_dual(4, field),
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
    mult = Matrix.from_columns(f, [change.solve(a.multiply(x, y)) for x in basis for y in basis], a.dim)
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


def sheared(c, k, l):
    """The same coalgebra in the basis e_k + e_l for e_k, the rest kept; degrees dropped.

    k and l are positive indices.  An old e_k becomes e'_k - e'_l in every
    factor, so a term e_k (x) e_k in the reduced comultiplication of e_l (as
    x1 (x) x1 in that of x2 in the divided line, k = 1, l = 2) puts
    e'_k (x) e'_k into that of e'_k: its weight is zero.
    """
    f = c.field
    minus = f.neg(f.one)

    def new(t):
        return ((t, f.one),) if t != k else ((k, f.one), (l, minus))

    comul = []
    for t in range(c.dim):
        acc = {}
        for s in (k, l) if t == k else (t,):
            for i, j, v in c.comul[s]:
                for i2, x in new(i):
                    for j2, y in new(j):
                        acc[(i2, j2)] = f.add(acc.get((i2, j2), f.zero), f.mul(v, f.mul(x, y)))
        comul.append(tuple((i, j, v) for (i, j), v in sorted(acc.items()) if v))
    counit = list(c.counit)
    counit[k] = f.add(counit[k], counit[l])
    return Coalgebra(f, c.dim, c.grouplike_index, counit, comul)


def non_associative_algebra(field=QQ):
    """Dim 3: 1, x, y with x x = y, y x = y and every other product of x, y zero.

    (x x) x = y but x (x x) = 0, so it fails associativity; its bar complex
    still has ranks, and they give negative "Ext dims".
    """
    f = field

    def vec(*v):
        return tuple(f.from_int(x) for x in v)

    one, x, y, zero = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), vec(0, 0, 0)
    # column a*3 + b holds e_a e_b
    mult = Matrix.from_columns(f, [one, x, y, x, y, zero, y, y, zero], 3)
    return Algebra(f, 3, one, mult, one)


def non_associative_graded_algebra(field=QQ):
    """1, x, x^2, x^3 with x x = x^2, x x^2 = x^3 and x^2 x = 0, truncated at degree 3.

    (x x) x = 0 but x (x x) = x^3, so it fails associativity; every unit
    component is an identity.
    """
    f = field
    nonzero = {(p, q) for p in range(4) for q in range(4 - p) if p == 0 or q == 0} | {(1, 1), (1, 2)}
    comps = {}
    for p in range(4):
        for q in range(4 - p):
            comps[(p, q)] = Matrix(f, 1, 1, {(0, 0): f.one} if (p, q) in nonzero else {})
    return GradedAlgebra(f, (1, 1, 1, 1), comps)


def kron_validate_algebra(a):
    """Reference ``validate_algebra``, by Kronecker products: m (m (x) I) = m (I (x) m), unit and augmentation."""
    f = a.field
    n = a.dim
    m = a.mult
    eye = Matrix.identity(f, n)
    if not (m @ Matrix.kron(m, eye) == m @ Matrix.kron(eye, m)):
        return False
    unit_col = Matrix.from_columns(f, [list(a.unit)], n)
    if not (m @ Matrix.kron(unit_col, eye) == eye and m @ Matrix.kron(eye, unit_col) == eye):
        return False
    if a.augmentation is not None:
        aug = Matrix.from_entries(f, 1, n, [(0, i, v) for i, v in enumerate(a.augmentation)])
        if not (aug @ m == Matrix.kron(aug, aug)):
            return False
        got = f.zero
        for v, u in zip(a.augmentation, a.unit):
            got = f.add(got, f.mul(v, u))
        if got != f.one:
            return False
    return True


def kron_validate_graded_algebra(a):
    """Reference validation of a graded algebra, by Kronecker products of its components.

    The bar side validates a graded algebra as its flattening with
    ``validate_algebra``; the two must agree.
    """
    f = a.field
    top = a.top_degree
    for q in range(top + 1):
        eye = Matrix.identity(f, a.dims[q])
        if not (a.component(0, q) == eye and a.component(q, 0) == eye):
            return False
    for p in range(top + 1):
        for q in range(top + 1 - p):
            for r in range(top + 1 - p - q):
                first = a.component(p + q, r) @ Matrix.kron(a.component(p, q), Matrix.identity(f, a.dims[r]))
                second = a.component(p, q + r) @ Matrix.kron(Matrix.identity(f, a.dims[p]), a.component(q, r))
                if not (first == second):
                    return False
    return True


def componentwise_validate_graded(g):
    """Reference axiom check of a GradedCoalgebra, one component at a time, with no flattening.

    ``validate_graded`` reads the flattening with ``validate``; the two must
    agree on coassociative, counital and cocommutative.  This one takes
    coaugmented and conilpotent as given.
    """
    f = g.field
    flags = {"coaugmented": True, "conilpotent": True}
    notes = {}
    coassoc = counital = cocomm = True
    for j in range(g.top_degree + 1):
        dj = g.dims[j]
        if dj == 0:
            continue
        eye_j = Matrix.identity(f, dj)
        if g.component(j, 0, j) != eye_j or g.component(j, j, 0) != eye_j:
            counital = False
            notes.setdefault("counital", "unit component at degree %d is not the identity" % j)
        for p in range(j + 1):
            q = j - p
            if swap_matrix(f, g.dims[p], g.dims[q]) @ g.component(j, p, q) != g.component(j, q, p):
                cocomm = False
        for p in range(j + 1):
            for q in range(j - p + 1):
                r = j - p - q
                left = kron_identity_matmul(g.component(p + q, p, q), g.dims[r], g.component(j, p + q, r))
                right = kron_identity_matmul(g.dims[p], g.component(q + r, q, r), g.component(j, p, q + r))
                if left != right:
                    coassoc = False
                    notes.setdefault("coassociative", "fails at (j,p,q,r)=(%d,%d,%d,%d)" % (j, p, q, r))
    flags.update(coassociative=coassoc, counital=counital, cocommutative=cocomm)
    return ValidationReport(flags, notes)


def perturbed_graded(field=QQ):
    """Sym(2)<=3 and T(2)<=3 with one defect each, by name.

    ``_entry`` doubles one entry of Delta_(1,1) on degree 2, which breaks
    coassociativity; ``_unit`` doubles one entry of Delta_(0,2), the
    identity, which breaks the counit.
    """
    out = {}
    for name, g in (("sym23", symmetric_coalgebra(2, 3, field)), ("ten23", tensor_coalgebra(2, 3, field))):
        for suffix, key in (("_entry", (2, 1, 1)), ("_unit", (2, 0, 2))):
            m = g.component(*key)
            (first, v), *_ = sorted(m.entries.items())
            changed = Matrix(field, m.nrows, m.ncols, {**m.entries, first: field.add(v, v)})
            out[name + suffix] = GradedCoalgebra(field, g.dims, {**g.components, key: changed})
    return out


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


def path_dual(field=QQ, square_zero=False):
    """Dim 5: g, u, a*, b*, (ba)*; the dual of the path algebra of 1 <-> 2 with ab = 0.

    Reduced comultiplication u -> u (x) u, a* -> a* (x) u, b* -> u (x) b*
    and (ba)* -> b* (x) a* + u (x) (ba)* + (ba)* (x) u.  Coassociative and
    coaugmented, but g + u is a second grouplike, so it is not conilpotent;
    the term graph of its reduced comultiplication has the loop u -> u.
    ``square_zero`` drops (ba)*: dim 4, the dual for ab = ba = 0.
    """
    one, z = field.one, field.zero
    reduced = [(), ((1, 1),), ((2, 1),), ((1, 3),), ((3, 2), (1, 4), (4, 1))][: 4 if square_zero else 5]
    dim = len(reduced)
    comul = [((0, 0, one),)] + [((0, t, one), (t, 0, one)) + tuple((i, j, one) for i, j in reduced[t]) for t in range(1, dim)]
    return Coalgebra(field, dim, 0, (one,) + (z,) * (dim - 1), comul)


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


def zero_grading(bar):
    """The grading of ``bar`` with one weight, (): one cell per term, the whole term in Kronecker order."""
    return (), [((), bar.d)], {(0, 0): bar.reduced}


def bar_cells(bar, top, jmax=None, whole=False):
    """{(i, w): cell} for the cells (i, w) of bar terms 0 .. top, as the sweep builds them.

    Each cell is d_i^T: cell (i-1, w)* -> cell (i, w)*, a ``ColumnMatrix``.
    ``whole`` builds the zero grading instead, whose one cell (i, ()) is the
    whole term.
    """
    return {(i, w): d for i, w, _, d in bar._cells(zero_grading(bar) if whole else bar.grading, top, jmax)}


def zero_grading_dims(bar, imax):
    """[dim Ext^0, ..., dim Ext^imax] from the sweep of ``bar`` with its grading replaced by the zero grading."""
    bar.grading = zero_grading(bar)
    sizes, ranks = bar.sweep(imax)
    dims = [0] * (imax + 1)
    for (i, w), n in sizes.items():
        if i <= imax:
            dims[i] += n - ranks.get((i, w), 0) - ranks.get((i + 1, w), 0)
    return dims


def skipped_top_sweep(bar, imax, jmax=None):
    """(ranks, {w: (cleared, certified, built, d)}) from ``bar.sweep(imax, jmax)``, one entry per top cell.

    ``cleared`` is the set of pivot rows of term imax at w that the sweep
    hands to ``_cells``, read once term imax is ranked; ``certified`` and
    ``built`` are the column indices that ``_cells`` counts and builds, and
    d holds the built columns.
    """
    raw, top, seen = bar._cells, {}, {}

    def cells(grading, last, jmax=None, cleared=None):
        for i, w, n, d in raw(grading, last, jmax, cleared):
            if i == last:
                top[w] = (seen.get(w, set()), *d)
            yield i, w, n, d
            if i == last - 1:  # the sweep has stored this cell's pivot rows
                seen.update((k, set(v)) for k, v in cleared.items())

    bar._cells = cells
    _, ranks = bar.sweep(imax, jmax)
    return ranks, top


def assert_top_term_is_skipped_exactly(a, imax, jmax=None):
    """Check every top cell of ``a``'s bar sweep to imax against the full cell; return the cells as ``skipped_top_sweep`` does."""
    ranks, top = skipped_top_sweep(_BarComplex(a), imax, jmax)
    full = {w: d for (i, w), d in bar_cells(_BarComplex(a), imax + 1, jmax).items() if i == imax + 1}
    assert top.keys() == full.keys()
    for w, (cleared, certified, built, d) in top.items():
        cell = full[w]
        certified = set(certified)
        assert not certified & cleared and not set(built) & (cleared | certified), w
        assert sorted(cleared | certified | set(built)) == list(range(cell.ncols)), w
        assert (d.nrows, d.cols) == (cell.nrows, [cell.cols[k] for k in built]), w
        holders = Counter(chain.from_iterable(cell.cols))
        assert all(1 in map(holders.__getitem__, cell.cols[k]) for k in certified), w
        plain = Matrix(cell.field, cell.nrows, cell.ncols, cell.entries).rank()
        assert len(certified) + (d.rank() if d.ncols else 0) == plain == ranks.get((imax + 1, w), 0), w
    return top


def bar_boundary(bar, i):
    """d: B_i -> B_(i-1) of a finite algebra's bar complex, the transpose of the zero grading's cell (i, 0)."""
    d = bar_cells(bar, i, whole=True)[(i, ())]
    return Matrix(d.field, d.nrows, d.ncols, d.entries).transpose()


def bar_cell_positions(weights, i, w):
    """Kronecker index in A_+^(x i) of each position of bar cell (i, w).

    ``weights`` holds the weight of each basis vector of A_+.  The cell
    runs over the first factor's weight in ascending order, then over the
    basis vectors of that weight, then over cell (i-1, w - weight).
    """
    return _positions(tuple(weights), i, tuple(w))


@lru_cache(maxsize=4096)
def _positions(weights, i, w):
    if i == 0:
        return () if any(w) else (0,)
    step = len(weights) ** (i - 1)
    out = []
    for p in sorted(set(weights)):
        rest = _positions(weights, i - 1, tuple(x - y for x, y in zip(w, p)))
        out += [k * step + idx for k, wk in enumerate(weights) if wk == p for idx in rest]
    return tuple(out)


def bar_reference(a, bar):
    """(ref, weights) for the Kronecker reference of a bar complex, independent of its cells.

    ``ref`` carries ``f``, ``d`` and ``reduced``, the product on A_+ as one
    d x d^2 matrix, for ``kron_bar_boundary``; ``weights`` is the weight of
    each basis vector of A_+ in the bar's split.  A finite algebra's A_+ is
    the one the bar complex found.  A graded algebra's A_+ is A_1 + ... +
    A_top in degree order, its product assembled here from the components
    (zero above the truncation), and the first weight coordinate must be
    the degree.
    """
    if not isinstance(a, GradedAlgebra):
        return bar, bar.weights
    f, top = a.field, a.top_degree
    offsets, degrees = {}, []
    for p in range(1, top + 1):
        offsets[p] = len(degrees)
        degrees += [p] * a.dims[p]
    assert [w[0] for w in bar.weights] == degrees
    d = len(degrees)
    entries = {}
    for p in range(1, top + 1):
        for q in range(1, top + 1 - p):
            for (r, c), v in a.component(p, q).entries.items():
                x, y = divmod(c, a.dims[q])
                entries[(offsets[p + q] + r, (offsets[p] + x) * d + offsets[q] + y)] = v
    return SimpleNamespace(f=f, d=d, reduced=Matrix(f, d, d * d, entries)), bar.weights


def restricted_transpose(whole, rows, cols):
    """The transpose of ``whole`` on the given row and column positions, as {(col, row): value}.

    Raises KeyError when a column in ``cols`` has an entry outside ``rows``.
    """
    rows = {r: k for k, r in enumerate(rows)}
    cols = {c: k for k, c in enumerate(cols)}
    return {(cols[c], rows[r]): v for (r, c), v in whole.entries.items() if c in cols}


def kron_bar_boundary(bar, i):
    """Reference d: B_i -> B_(i-1) of the reduced bar complex, by Kronecker products.

    The sum over t = 1..i-1 of (-1)^(i-t+1) I (x) reduced product (x) I on
    (A_+)^(x i), with the reduced product in slots t and t+1: the signs are
    counted from the right, as the bar cells count them.
    """
    f = bar.f
    d = bar.d
    out = Matrix.zeros(f, d ** (i - 1), d**i)
    for t in range(1, i):
        ins = Matrix.kron(Matrix.identity(f, d ** (t - 1)), Matrix.kron(bar.reduced, Matrix.identity(f, d ** (i - 1 - t))))
        out = out + (ins if (i - t) % 2 else -ins)
    return out


def contramodule_ext_dims(cr):
    """Ext dimensions of a contramodule resolution against the ground field, read off minimality."""
    if not cr.minimal:
        raise ValueError("ext dimensions require a minimal resolution")
    return list(cr.cogenerator_dims)


def dense_quotient_maps(f, n, rows):
    """Reference projection/section pair for f^n / span(rows), from dense spanning rows.

    proj is a (q x n) matrix whose kernel is exactly the subspace; section is
    an (n x q) right inverse of proj picking the free coordinates of the
    subspace's RREF as quotient representatives.
    """
    if not rows:
        eye = Matrix.identity(f, n)
        return eye, eye
    m = Matrix.from_rows(f, [list(v) for v in rows], n)
    pivots, rows = m.rref()
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    proj_entries = {}
    for qi, fc in enumerate(free):
        proj_entries[(qi, fc)] = f.one
        for p, row in zip(pivots, rows):
            v = row.get(fc)
            if v is not None:
                proj_entries[(qi, p)] = f.neg(v)
    proj = Matrix(f, len(free), n, proj_entries)
    section = Matrix(f, n, len(free), {(fc, qi): f.one for qi, fc in enumerate(free)})
    return proj, section


def per_unit_socle_retraction(m, rows, rng=None):
    """Reference socle retraction: one ``solve`` per socle unit vector.

    Row k of phi solves x @ phi[k]^T = e_k, where the rows of x are the socle
    basis vectors ``rows``, dense; the random correction draws from ``rng``
    exactly as the coresolution does.
    """
    f = m.base.field
    n = m.dim
    v = len(rows)
    x = Matrix.from_columns(f, [list(vec) for vec in rows], n).transpose()
    cols = []
    for k in range(v):
        unit = [f.zero] * v
        unit[k] = f.one
        sol = x.solve(tuple(unit))
        assert sol is not None, "socle basis is not independent"
        cols.append(list(sol))
    phi = Matrix.from_columns(f, cols, n).transpose()
    if rng is not None and v < n:
        proj, _ = dense_quotient_maps(f, n, rows)
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
    vectors = pos.columns()
    into = Matrix.from_columns(f, [list(a.unit)] + [list(v) for v in vectors], n)
    d = pos.rank()
    items = []
    for c, (x, y) in enumerate((x, y) for x in vectors for y in vectors):
        sol = into.solve(a.multiply(x, y))
        assert sol is not None, "product of augmentation-ideal elements left the algebra"
        items.extend((r - 1, c, v) for r, v in enumerate(sol) if r >= 1)
    return Matrix.from_entries(f, d, d * d, items)


def component_bar_reduced(a):
    """Reference reduced product of the bar complex of a graded algebra, and the degrees of A_+.

    Assembled from the components A_p (x) A_q -> A_(p+q) with p, q >= 1:
    A_+ has the bases of A_1, ..., A_top in order, and the product is zero
    above the truncation.  Returns (the d x d^2 matrix, the degree of each
    basis vector of A_+).
    """
    dims = (0,) + a.dims[1:]
    first = [sum(dims[:p]) for p in range(len(dims))]  # the index in A_+ of the first basis vector of A_p
    degrees = [p for p, k in enumerate(dims) for _ in range(k)]
    d = len(degrees)
    entries = {}
    for (p, q), m in a.components.items():
        for (r, c), v in m.entries.items() if p and q else ():
            x, y = divmod(c, a.dims[q])
            entries[(first[p + q] + r, (first[p] + x) * d + first[q] + y)] = v
    return Matrix(a.field, d, d * d, entries), degrees


def field_rref(field, rows, width):
    """Reference reduced echelon form of sparse row dicts, in field arithmetic.

    The same pivot rule as ``exactlin._rref``: columns left to right, then
    the row with the fewest nonzeros, ties by row index.  Each pivot row is
    scaled to pivot value 1 when it is chosen, and every other row holding
    the column subtracts a field multiple of it.  Returns (pivot_cols, rows)
    in pivot order; works in place on ``rows``.
    """
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    pivots = []
    pivot_idx = []
    done = set()
    for col in range(width):
        holders = col_rows.get(col)
        if not holders:
            continue
        best = min((i for i in holders if i not in done), key=lambda i: (len(rows[i]), i), default=None)
        if best is None:
            continue
        done.add(best)
        prow = rows[best]
        inv = field.inv(prow[col])
        if inv != field.one:
            prow = rows[best] = {c: field.mul(inv, v) for c, v in prow.items()}
        for idx in [i for i in holders if i != best]:
            row = rows[idx]
            a = row[col]
            for c, v in prow.items():
                old = row.get(c)
                w = field.sub(field.zero if old is None else old, field.mul(a, v))
                if w:
                    row[c] = w
                    if old is None:
                        col_rows[c].add(idx)
                else:
                    del row[c]
                    col_rows[c].discard(idx)
        pivots.append(col)
        pivot_idx.append(best)
    return pivots, [rows[i] for i in pivot_idx]


def _layers(grading, top, jmax=None):
    """Reference cells: layers 0..top, each a dict weight -> sorted tensor list.

    A basis tensor is the tuple (a_1, ..., a_i, m) of positive indices and a
    comodule index; degrees above jmax are dropped.  Prepending each positive
    index to the cells of the previous layer, index by index, keeps every cell
    lexicographically sorted.
    """
    wc, wm = grading
    layer = {}
    for m, w in enumerate(wm):
        if jmax is None or w[0] <= jmax:
            layer.setdefault(w, []).append((m,))
    yield layer
    for _ in range(top):
        nxt = {}
        for a, wa in enumerate(wc):
            for w, cell in layer.items():
                key = tuple(map(add, wa, w))
                if jmax is None or key[0] <= jmax:
                    nxt.setdefault(key, []).extend([(a,) + t for t in cell])
        layer = nxt
        yield layer


def _cell_diff_negating_each_entry(f, cell, rows, comul, coaction):
    """Reference cell entries, one hash lookup per tensor and slot.

    Slot s of a tensor inserts the constants of its index (the coaction in
    the last slot), negated when s is odd; ``rows`` maps target tensors to
    row indices.
    """
    entries = {}
    for col, tensor in enumerate(cell):
        last = len(tensor) - 1
        for s, a in enumerate(tensor):
            for p, q, v in coaction[a] if s == last else comul[a]:
                key = (rows[tensor[:s] + (p, q) + tensor[s + 1 :]], col)
                if s % 2:
                    v = f.neg(v)
                v = f.add(entries[key], v) if key in entries else v
                if v:
                    entries[key] = v
                else:
                    del entries[key]
    return entries


def swept_cells(cx):
    """(i, w, nrows, ncols, entries) for every cell the sweep of ``cx`` builds, in sweep order.

    The sweep runs first, so its d^2 = 0 check has passed; ``entries`` is
    read from each cell's columns.
    """
    cx._sweep()
    cells = cx._cells(cx._grading, cx._int_constants, cx.imax, cx.jmax)
    return [(i, w, d.nrows, n, d.entries) for i, w, n, d in cells]


def reference_cells(cx):
    """(i, w, nrows, ncols, entries) for every cell of a cobar complex's sweep, from tensor tuples.

    Entries are those of the swept cells (the integer constants); rows follow
    the lexicographic order of the target cell, the top layer included.
    """
    comul, coaction = cx._int_constants
    layers = list(_layers(cx._grading, cx.imax + 1, cx.jmax))
    for i in range(cx.imax + 1):
        for w, cell in layers[i].items():
            rows = {t: r for r, t in enumerate(layers[i + 1].get(w, ()))}
            yield i, w, len(rows), len(cell), _cell_diff_negating_each_entry(cx.field, cell, rows, comul, coaction)


def top_sweep(cx):
    """(built, twins) for the sweep of a fresh ``cx``: the top weights it builds and its twins {W: R}; runs the sweep.

    Fails unless every cell below the top layer is built.
    """
    raw, built, twins = cx._cells, set(), {}

    def cells(grading, tables, top, jmax, bound, found):
        for i, w, n, d in raw(grading, tables, top, jmax, bound, found):
            assert d is not None or i == top, "cell (%d,%r) below the top is not built" % (i, w)
            if i == top and d is not None:
                built.add(w)
            yield i, w, n, d
        twins.update(found)

    cx._cells = cells
    try:
        cx._sweep()
    finally:
        del cx._cells
    return built, twins


def built_top_weights(cx):
    """The weights of the top-layer cells that the sweep of a fresh ``cx`` builds; runs the sweep."""
    return top_sweep(cx)[0]


def assert_twins_are_images(cx, built, twins):
    """Each twin W of a built top cell R is the cell s(R) for a structure-preserving permutation s.

    The candidates s come from the sweep's search; each is checked here term
    by term against the exact structure constants, and the tensors of cell R
    with every positive index a replaced by s(a) must be those of cell W.
    """
    comul, coaction = cx._comul, cx._coaction
    top = list(_layers(cx._grading, cx.imax, cx.jmax))[-1]

    def preserves(s):
        same_comul = all(
            {(s[i], s[j]): v for i, j, v in row} == {(i, j): v for i, j, v in comul[s[t]]} for t, row in enumerate(comul)
        )
        return same_comul and all({(s[c], m): v for c, m, v in row} == {(c, m): v for c, m, v in row} for row in coaction)

    auts = [s for s in _automorphisms(*cx._int_constants) if preserves(s)]
    for w, r in twins.items():
        assert r in built and w not in built
        assert any(sorted(tuple(s[a] for a in t[:-1]) + t[-1:] for t in top[r]) == top[w] for s in auts), (w, r)


def unpruned_sweep(cx):
    """{(i, w): (Ext dim, d^2 check)} for every cell of ``cx``, the top layer built in full.

    Runs ``_cells`` without the support bound, ranks each cell without
    clearing, and checks d_i on cell W against the pivot columns K of
    d_(i-1) on W.
    """
    ranks, kept, out = {}, {}, {}
    for i, w, n, d in cx._cells(cx._grading, cx._int_constants, cx.imax, cx.jmax):
        ranks[(i, w)], _, cols = d.rank(pivots=True)
        kept[(i, w)] = [d.cols[k] for k in cols]
        out[(i, w)] = n - ranks[(i, w)] - ranks.get((i - 1, w), 0), d.annihilates(kept.pop((i - 1, w), ()))
    return out


def support_bound(cx, cells):
    """The weights W' + w_a, for cells (imax-1, W') with nonzero Ext in ``cells = unpruned_sweep(cx)`` and positive a."""
    nonzero = [w for (i, w), (ext, _) in cells.items() if i == cx.imax - 1 and ext]
    return {tuple(map(add, w, wa)) for w in nonzero for wa in cx._grading[0]}


def assert_pruned_sweep_is_exact(make):
    """Check the pruned sweep of ``make()`` against the unpruned sweep of another.

    Ext per cell and the table agree, every cell of the unpruned sweep
    squares to zero with the layer below, and the top cells in the support
    bound are each either built or the twin of a built cell, checked by
    ``assert_twins_are_images``.  Returns the numbers of top cells skipped
    by the bound and of twins.
    """
    cx = make()
    built, twins = top_sweep(cx)
    cells = unpruned_sweep(make())
    ranks = cx._ranks
    assert {key: n - ranks[key] - ranks.get((key[0] - 1, key[1]), 0) for key, n in cx._dims.items()} == {
        key: ext for key, (ext, _) in cells.items()
    }
    table = ext_table(cx).entries
    unpruned = dict.fromkeys(table, 0)
    for (i, w), (ext, _) in cells.items():
        unpruned[(i, w[0]) if cx.jmax is not None else i] += ext
    assert table == unpruned
    assert all(ok for _, ok in cells.values())
    assert cx._bounded()
    top = {w for i, w in cells if i == cx.imax}
    assert not built & twins.keys()
    assert built | twins.keys() == top & support_bound(cx, cells)
    assert_twins_are_images(cx, built, twins)
    skipped = top - built - twins.keys()
    assert all(cells[cx.imax, w][0] == 0 for w in skipped)
    return len(skipped), len(twins)


def reference_whole_diff(cx, i):
    """Entries of d: term i -> term i+1 in tensor index order, with the true constants."""
    zero = ([()] * len(cx._comul), [()] * len(cx._coaction))
    layers = list(_layers(zero, i + 1))
    src = layers[i].get((), [])
    rows = {t: r for r, t in enumerate(layers[i + 1].get((), []))}
    return _cell_diff_negating_each_entry(cx.field, src, rows, cx._comul, cx._coaction)


def reverse_tensor_vector(d, degree, vec):
    """Reorder an i-tensor vector by reversing the tensor factors.

    Index arithmetic in base d: digit sequences reverse.  This identifies the
    cobar complex of the opposite coalgebra with the original one up to a
    per-degree sign, so it matches cohomology bases across the two.
    """
    if degree <= 1:
        return tuple(vec)
    out = list(vec)
    size = d**degree
    if len(vec) != size:
        raise ValueError("vector length is not d**degree")
    for idx in range(size):
        digits = []
        w = idx
        for _ in range(degree):
            digits.append(w % d)
            w //= d
        ridx = 0
        for dig in digits:
            ridx = ridx * d + dig
        out[ridx] = vec[idx]
    return tuple(out)


def symmetric_to_tensor_embedding(m, top, field):
    """Per-degree matrices of the orbit-sum embedding Sym(m) -> Ten(m).

    s_alpha maps to the sum of all words with exponent profile alpha; the
    embedding intertwines the comultiplication components of the two
    constructors degreewise.
    """
    bases = [_monomials(m, j) for j in range(top + 1)]
    out = {}
    for j in range(top + 1):
        items = []
        for col, alpha in enumerate(bases[j]):
            for widx in range(m**j if m > 0 else (1 if j == 0 else 0)):
                word = []
                w = widx
                for _ in range(j):
                    word.append(w % m)
                    w //= m
                profile = [0] * m
                for ch_ in word:
                    profile[ch_] += 1
                if tuple(profile) == alpha:
                    items.append((widx, col, field.one))
        out[j] = Matrix.from_entries(field, m**j if m > 0 else (1 if j == 0 else 0), len(bases[j]), items)
    return out


# ---------------------------------------------------------------------------
# direct sums, comodule morphisms and module extensions (test constructions)


def per_basis_hom_differential(c, d, nu_l, v_here, v_next):
    """Reference for ``dualalg._hom_differential``: phi -> (eps (x) 1) d (1 (x) phi) nu_L.

    Applies the map to each basis element E_(r,s) of Hom_k(L, V_i) by full
    products; column (r, s) of the result holds the image, read row-major.
    """
    f = c.field
    dl = nu_l.ncols
    eps = c.counit_matrix()
    entries = {}
    for r in range(v_here):
        for s in range(dl):
            phi = Matrix(f, v_here, dl, {(r, s): f.one})
            composite = kron_identity_matmul(eps, v_next, d @ kron_identity_matmul(c.dim, phi, nu_l))
            col = r * dl + s
            entries.update(((rr * dl + cc, col), v) for (rr, cc), v in composite.entries.items())
    return Matrix(f, v_next * dl, v_here * dl, entries)


def per_basis_comodule_ext_dims(c, l, m, n):
    """Reference for ``dualalg.comodule_ext_dims``, through ``per_basis_hom_differential``."""
    res = minimal_coresolution(m, n + 1)
    vdims = res.cogenerator_dims
    nu_l = l.coaction_matrix()
    dims = []
    prev_rank = 0
    for i in range(n + 1):
        rank_i = per_basis_hom_differential(c, res.differentials[i], nu_l, vdims[i], vdims[i + 1]).rank()
        dims.append(vdims[i] * l.dim - rank_i - prev_rank)
        prev_rank = rank_i
    return dims


def direct_sum_comodules(m1, m2):
    if m1.base != m2.base:
        raise ValueError("comodules over different coalgebras")
    coaction = [list(triples) for triples in m1.coaction]
    for triples in m2.coaction:
        coaction.append([(i, j + m1.dim, v) for i, j, v in triples])
    return Comodule(m1.base, m1.dim + m2.dim, coaction)


def comodule_hom_basis(l, m):
    """Basis of the space of comodule morphisms L -> M, as matrices.

    A linear map F: L -> M is a morphism iff (id (x) F) nu_L = nu_M F; the
    entries of F satisfy one linear equation per (input index, output
    coordinate of C (x) M).
    """
    if l.base is not m.base and l.base != m.base:
        raise ValueError("comodules over different coalgebras")
    f = l.base.field
    dl, dm = l.dim, m.dim
    if dl == 0 or dm == 0:
        return []
    rows = {}

    def unknown(r, cc):
        return r * dl + cc

    for t in range(dl):
        for i, j, v in l.coaction[t]:
            for r in range(dm):
                key = (t, i, r)
                rows.setdefault(key, {})
                col = unknown(r, j)
                rows[key][col] = f.add(rows[key].get(col, f.zero), v)
    for t in range(dl):
        for r in range(dm):
            for i, s, v in m.coaction[r]:
                key = (t, i, s)
                rows.setdefault(key, {})
                col = unknown(r, t)
                rows[key][col] = f.sub(rows[key].get(col, f.zero), v)
    keys = sorted(rows)
    items = []
    for ridx, key in enumerate(keys):
        for col, v in rows[key].items():
            if v != f.zero:
                items.append((ridx, col, v))
    system = Matrix.from_entries(f, len(keys), dm * dl, items)
    kernel = system.kernel_basis().column_dicts()
    return [Matrix.from_entries(f, dm, dl, [(*divmod(k, dl), v) for k, v in vec.items()]) for vec in kernel]


def scaled(m, c):
    """c times the matrix m, entry by entry."""
    f = m.field
    c = f.coerce(c)
    return Matrix.from_entries(f, m.nrows, m.ncols, [(r, k, f.mul(c, v)) for (r, k), v in m.entries.items()])


def module_actions(p):
    """The action of each algebra basis element on p, as p.dim x p.dim matrices: column block s of ``p.action``."""
    d = p.dim
    entries = [{} for _ in range(p.algebra.dim)]
    for (r, col), v in p.action.entries.items():
        s, c = divmod(col, d)
        entries[s][(r, c)] = v
    return [Matrix(p.algebra.field, d, d, e) for e in entries]


def module_from_actions(a, dim, acts):
    """The module on which e_s acts by acts[s]: the blocks side by side as one action matrix."""
    entries = {(r, s * dim + c): v for s, m in enumerate(acts) for (r, c), v in m.entries.items()}
    return ModulePresentation(a, dim, Matrix(a.field, dim, a.dim * dim, entries))


def per_basis_module_axioms(p):
    """Reference for ``dualalg.verify_module_axioms``: the unit, then every pair of basis elements by one matmul."""
    a = p.algebra
    f = a.field
    acts = module_actions(p)

    def action_of(vec):
        out = Matrix.zeros(f, p.dim, p.dim)
        for s, v in vec.items():
            out = out + scaled(acts[s], v)
        return out

    if not (action_of({s: v for s, v in enumerate(a.unit) if v}) == Matrix.identity(f, p.dim)):
        return False
    products = a.mult.column_dicts()  # column x*dim + y: e_x e_y
    for x in range(a.dim):
        for y in range(a.dim):
            if not (action_of(products[x * a.dim + y]) == acts[x] @ acts[y]):
                return False
    return True


def direct_sum_modules(p, q):
    if p.algebra != q.algebra:
        raise ValueError("modules over different algebras")
    f = p.algebra.field
    acts = []
    for pa, qa in zip(module_actions(p), module_actions(q)):
        items = [(r, c, v) for (r, c), v in pa.entries.items()]
        items += [(p.dim + r, p.dim + c, v) for (r, c), v in qa.entries.items()]
        acts.append(Matrix.from_entries(f, p.dim + q.dim, p.dim + q.dim, items))
    return module_from_actions(p.algebra, p.dim + q.dim, acts)


def module_extension_space(l, m):
    """Basis of extension data on m (+) l: block maps making the sum a module.

    An element assigns to each algebra basis element s a matrix c_s with
    action blocks [[act_m[s], c_s], [0, act_l[s]]]; unitality and
    associativity are linear constraints on the c_s.
    """
    a = l.algebra
    f = a.field
    rows_per = m.dim * l.dim  # c_s flattened row-major
    unknowns = a.dim * rows_per
    eqs = []
    unit_row = {}
    for s, v in enumerate(a.unit):
        if v != f.zero:
            for k in range(rows_per):
                key = s * rows_per + k
                unit_row.setdefault(k, {})[key] = v
    for k, coeffs in unit_row.items():
        eqs.append(coeffs)
    products = a.mult.columns()
    m_acts, l_acts = module_actions(m), module_actions(l)
    for x in range(a.dim):
        for y in range(a.dim):
            # c(xy) = act_m[x] c_y + c_x act_l[y]
            prod = products[x * a.dim + y]
            for r in range(m.dim):
                for c in range(l.dim):
                    coeffs = {}
                    for s, v in enumerate(prod):
                        if v != f.zero:
                            key = s * rows_per + r * l.dim + c
                            coeffs[key] = f.add(coeffs.get(key, f.zero), v)
                    for (rr, k), v in m_acts[x].entries.items():
                        if rr == r:
                            key = y * rows_per + k * l.dim + c
                            coeffs[key] = f.sub(coeffs.get(key, f.zero), v)
                    for (k, cc), v in l_acts[y].entries.items():
                        if cc == c:
                            key = x * rows_per + r * l.dim + k
                            coeffs[key] = f.sub(coeffs.get(key, f.zero), v)
                    if coeffs:
                        eqs.append(coeffs)
    items = []
    for ridx, coeffs in enumerate(eqs):
        for cidx, v in coeffs.items():
            if v != f.zero:
                items.append((ridx, cidx, v))
    system = Matrix.from_entries(f, len(eqs), unknowns, items)
    return system.kernel_basis().columns()


def extension_module(l, m, data):
    """Assemble the module m (+) l from one extension datum."""
    a = l.algebra
    f = a.field
    rows_per = m.dim * l.dim
    acts = []
    for s, (ma, la) in enumerate(zip(module_actions(m), module_actions(l))):
        items = [(r, c, v) for (r, c), v in ma.entries.items()]
        items += [(m.dim + r, m.dim + c, v) for (r, c), v in la.entries.items()]
        for k in range(rows_per):
            v = data[s * rows_per + k]
            if v != f.zero:
                items.append((k // l.dim, m.dim + k % l.dim, v))
        acts.append(Matrix.from_entries(f, m.dim + l.dim, m.dim + l.dim, items))
    return module_from_actions(a, m.dim + l.dim, acts)


# ---------------------------------------------------------------------------
# random subring elements, the subring action and the rationalizing vector of
# the witness models


def random_subring_element(rng, field=QQ):
    """Small integer value at the grouplike, tail and up to three corrections below index 8."""
    alpha = field.from_int(rng.randrange(-4, 5))
    tail = field.from_int(rng.randrange(-4, 5))
    items = {}
    for _ in range(rng.randrange(0, 4)):
        items[rng.randrange(0, 8)] = field.from_int(rng.randrange(-4, 5))
    return SubringElement(alpha, EventuallyConstant(field, tail, tuple(items.items())))


def module_action(a: SubringElement, q: QElement) -> QElement:
    """Induced subring action on Q through the contraaction.

    The input fed to the contraaction is c |-> a(c) q.  Its V -> T block has
    entries t_i * chi(e_j), an honest finite block only when chi has zero
    tail, so the action is modeled on that dense part of the subring.
    """
    f = q.field
    if a.field != f:
        raise ValueError("field mismatch")
    if a.chi.tail != f.zero:
        raise ValueError("module action needs a finitely supported functional")
    block = {}
    for i, t in q.t_part:
        for j, _ in a.chi.corrections:
            block[(i, j)] = f.mul(t, a.chi.value(j))
    h = HomToQ(
        f,
        f.mul(a.alpha, q.k_part),
        tuple((i, f.mul(a.alpha, t)) for i, t in q.t_part),
        TaggedLinearMap(f, f.zero, tuple(block.items())),
    )
    return contraaction(h)


def rationalizing_vector(f: TaggedCofunctional):
    """Coordinates of a vector realizing f, or None when no vector does."""
    if f.variant == "vector":
        return f.coords
    if f.tail != f.field.zero:
        return None
    coords = [f.field.zero] * f.support_bound()
    for i, v in f.corrections:
        coords[i] = v
    return tuple(coords)
