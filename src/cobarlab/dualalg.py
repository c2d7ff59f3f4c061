"""Dual algebras, bar-complex Ext, module Ext, and the comparison checks.

The multiplication on the dual of a coalgebra follows the convention
(fg)(c) = f(c_(2)) g(c_(1)): the coefficient of e^t in e^a e^b is the
coefficient of e_b (x) e_a in the comultiplication of e_t.  This is the
convention under which every comodule becomes a genuine left module over
the dual algebra via the contracted coaction; the transposed convention
breaks associativity of that action on noncocommutative examples, which is
what pins it.

Module Ext is computed from minimal free resolutions: over these algebras
the augmentation ideal is nilpotent, so covers by A (x) (K / A_+ K) are
surjective and kernels stay finite.  The bar complex gives an independent
route to the same numbers, split into internal-degree cells whenever the
algebra is graded (Priddy, "Koszul resolutions", 1970): by its components
for a graded algebra, by its degree metadata for a finite one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from cobarlab.coalg import Coalgebra, Comodule, GradedCoalgebra, validate
from cobarlab.cobar import ExtTable
from cobarlab.exactlin import Matrix, SubspaceBasis, extend_to_basis, kron_identity_matmul, quotient_maps


class Algebra:
    """Finite-dimensional associative unital algebra, optionally augmented.

    mult[a][b] is the coordinate tuple of e_a e_b; unit and augmentation are
    coordinate vectors (the augmentation may be None).  ``degrees`` is
    optional metadata, one int per basis index, as on ``Coalgebra``; the bar
    complex splits by it when it grades the augmentation ideal.
    """

    def __init__(self, field, dim, unit, mult, augmentation=None, degrees=None):
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        if len(unit) != dim or len(mult) != dim:
            raise ValueError("unit or multiplication table has wrong shape")
        self.field = field
        self.dim = dim
        self.unit = tuple(field.coerce(v) for v in unit)
        rows = []
        for a in range(dim):
            if len(mult[a]) != dim:
                raise ValueError("multiplication table has wrong shape")
            rows.append(tuple(tuple(field.coerce(v) for v in mult[a][b]) for b in range(dim)))
        self.mult = tuple(rows)
        self.augmentation = None if augmentation is None else tuple(field.coerce(v) for v in augmentation)
        if degrees is not None:
            degrees = tuple(int(d) for d in degrees)
            if len(degrees) != dim:
                raise ValueError("degrees length != dim")
        self.degrees = degrees

    def mult_matrix(self):
        """A (x) A -> A with column index a*dim + b."""
        n = self.dim
        items = [(t, a * n + b, v) for a in range(n) for b in range(n) for t, v in enumerate(self.mult[a][b]) if v]
        return Matrix.from_entries(self.field, n, n * n, items)

    def multiply(self, u, v):
        f = self.field
        out = [f.zero] * self.dim
        for a, ua in enumerate(u):
            if ua == f.zero:
                continue
            for b, vb in enumerate(v):
                if vb == f.zero:
                    continue
                coeff = f.mul(ua, vb)
                for t, w in enumerate(self.mult[a][b]):
                    if w != f.zero:
                        out[t] = f.add(out[t], f.mul(coeff, w))
        return tuple(out)

    def left_action_matrix(self, a):
        """Left multiplication by basis element a."""
        items = [(t, b, v) for b in range(self.dim) for t, v in enumerate(self.mult[a][b]) if v]
        return Matrix.from_entries(self.field, self.dim, self.dim, items)

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.dim == other.dim
            and self.unit == other.unit
            and self.mult == other.mult
            and self.augmentation == other.augmentation
        )


def validate_algebra(a):
    """Associativity, unitality, and the augmentation being a character."""
    f = a.field
    n = a.dim
    m = a.mult_matrix()
    eye = Matrix.identity(f, n)
    if not (m @ Matrix.kron(m, eye) == m @ Matrix.kron(eye, m)):
        return False
    unit_col = Matrix.from_columns(f, [list(a.unit)], n)
    left = m @ Matrix.kron(unit_col, eye)
    right = m @ Matrix.kron(eye, unit_col)
    if not (left == eye and right == eye):
        return False
    if a.augmentation is not None:
        aug = Matrix.from_entries(f, 1, n, [(0, i, v) for i, v in enumerate(a.augmentation)])
        if not (aug @ m == Matrix.kron(aug, aug)):
            return False
        got = f.zero
        for i, v in enumerate(a.augmentation):
            got = f.add(got, f.mul(v, a.unit[i]))
        if got != f.one:
            return False
    return True


def dual_algebra(c):
    """The dual of a finite coalgebra under the stated convention."""
    if not isinstance(c, Coalgebra):
        raise TypeError("dual_algebra expects a finite coalgebra")
    f = c.field
    n = c.dim
    mult = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for t in range(n):
        for i, j, v in c.comul[t]:
            # v e_i (x) e_j in comul(e_t): the second factor is eaten first,
            # so the coefficient lands in e^j e^i
            mult[j][i][t] = f.add(mult[j][i][t], v)
    aug = [f.zero] * n
    aug[c.grouplike_index] = f.one
    return Algebra(f, n, c.counit, mult, aug, c.degrees)


def opposite_algebra(a):
    flipped = [[a.mult[y][x] for y in range(a.dim)] for x in range(a.dim)]
    return Algebra(a.field, a.dim, a.unit, flipped, a.augmentation, a.degrees)


class GradedAlgebra:
    """Nonnegatively graded algebra truncated above degree D, dims[0] == 1.

    components[(p, q)] maps A_p (x) A_q -> A_{p+q} for p + q <= D, as a
    dims[p+q] x dims[p]*dims[q] matrix with column index a*dims[q] + b.
    """

    def __init__(self, field, dims, components):
        dims = tuple(int(d) for d in dims)
        if not dims or dims[0] != 1:
            raise ValueError("graded algebra needs dims[0] == 1")
        self.field = field
        self.dims = dims
        self.top_degree = len(dims) - 1
        comps = {}
        for p in range(self.top_degree + 1):
            for q in range(self.top_degree + 1 - p):
                m = components.get((p, q))
                if m is None:
                    raise ValueError("missing multiplication component (%d,%d)" % (p, q))
                if m.nrows != dims[p + q] or m.ncols != dims[p] * dims[q]:
                    raise ValueError("component (%d,%d) has wrong shape" % (p, q))
                comps[(p, q)] = m
        self.components = comps

    def component(self, p, q):
        return self.components[(p, q)]

    def __eq__(self, other):
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.dims == other.dims
            and all(self.components[k] == other.components[k] for k in self.components)
        )


def validate_graded_algebra(a):
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


def graded_dual(g):
    """Transpose-with-swap duality between graded coalgebras and algebras."""
    if isinstance(g, GradedCoalgebra):
        f = g.field
        dims = g.dims
        comps = {}
        for p in range(g.top_degree + 1):
            for q in range(g.top_degree + 1 - p):
                src = g.component(p + q, q, p)  # C_{p+q} -> C_q (x) C_p
                items = []
                for (row, t), v in src.entries.items():
                    b, a = divmod(row, dims[p])
                    items.append((t, a * dims[q] + b, v))
                comps[(p, q)] = Matrix.from_entries(f, dims[p + q], dims[p] * dims[q], items)
        return GradedAlgebra(f, dims, comps)
    if isinstance(g, GradedAlgebra):
        f = g.field
        dims = g.dims
        comps = {}
        for j in range(g.top_degree + 1):
            for q in range(j + 1):
                p = j - q
                src = g.component(p, q)
                items = []
                for (t, col), v in src.entries.items():
                    a, b = divmod(col, dims[q])
                    items.append((b * dims[p] + a, t, v))
                comps[(j, q, p)] = Matrix.from_entries(f, dims[q] * dims[p], dims[j], items)
        return GradedCoalgebra(f, dims, comps)
    raise TypeError("graded_dual expects a graded coalgebra or graded algebra")


def quadratic_algebra(m, relations, top, field):
    """Truncated quotient of the free algebra on m generators by quadratic relations.

    ``relations`` is an iterable of vectors in k^(m*m) (index x*m + y for the
    word xy).  The ideal is generated degreewise: the degree-j component is
    the span of word (x) relation (x) word paddings, and multiplication is
    induced by concatenation on chosen representatives.
    """
    if isinstance(relations, SubspaceBasis):
        relations = list(relations.vectors)
    f = field
    rels = [tuple(f.coerce(v) for v in vec) for vec in relations]
    if any(len(vec) != m * m for vec in rels):
        raise ValueError("relation vectors must live in the degree-2 component")
    projs = {}
    sections = {}
    dims = []
    for j in range(top + 1):
        total = m**j
        if j < 2 or not rels:
            span = SubspaceBasis(f, total, ())
        else:
            vecs = []
            for s in range(j - 1):
                t = j - 2 - s
                left = m**s
                right = m**t
                for r in rels:
                    for wl in range(left):
                        for wr in range(right):
                            vec = [f.zero] * total
                            for pair_idx, v in enumerate(r):
                                if v != f.zero:
                                    vec[(wl * (m * m) + pair_idx) * right + wr] = v
                            vecs.append(tuple(vec))
            span = SubspaceBasis(f, total, tuple(vecs))
        proj, section = quotient_maps(span)
        projs[j] = proj
        sections[j] = section
        dims.append(total - span.dim)
    comps = {}
    for p in range(top + 1):
        for q in range(top + 1 - p):
            comps[(p, q)] = projs[p + q] @ Matrix.kron(sections[p], sections[q])
    return GradedAlgebra(f, dims, comps)


# ---------------------------------------------------------------------------
# bar complexes


class _BarComplex:
    """Reduced bar complex of an augmented algebra, split into internal-degree cells.

    A_+ has ``dims[w]`` basis vectors of degree w, and ``mu[(p, q)]`` is the
    reduced product A_p (x) A_q -> A_{p+q} (column index a*dims[q] + b).
    Cell (i, w) of B_i = A_+^(x i) holds one block per composition of w into
    i degrees, row-major inside; the boundary keeps the degree.  A graded
    algebra gives its components.  A finite algebra gives ``reduced``, the
    product on A_+ = ker(augmentation), graded by its ``degrees`` when
    ``_positive_degrees`` accepts them and by the zero grading (one cell per
    term) otherwise.  ``boundary(i)`` is the zero-grading cell, the whole
    term indexed row-major over A_+^(x i).
    """

    def __init__(self, a):
        f = self.f = a.field
        if isinstance(a, GradedAlgebra):
            top = a.top_degree
            self.dims = (0,) + a.dims[1:]
            self.mu = {(p, q): a.component(p, q) for p in range(1, top + 1) for q in range(1, top + 1 - p)}
            return
        if a.augmentation is None:
            raise ValueError("bar complex needs an augmented algebra")
        n = a.dim
        pos = Matrix.from_entries(f, 1, n, [(0, i, v) for i, v in enumerate(a.augmentation)]).kernel_basis()
        d = self.d = pos.dim
        into = Matrix.from_columns(f, [list(a.unit)] + [list(v) for v in pos.vectors], n)  # k (+) A_+ -> A
        prod_cols = [list(a.multiply(x, y)) for x in pos.vectors for y in pos.vectors]
        sol = into.solve_columns(Matrix.from_columns(f, prod_cols, n) if prod_cols else Matrix.zeros(f, n, 0))
        if sol is None:
            raise AssertionError("product of augmentation-ideal elements left the algebra")
        self.reduced = Matrix(f, d, d * d, {(r - 1, c): v for (r, c), v in sol.entries.items() if r >= 1})
        self.dims, self.mu = (d,), {(0, 0): self.reduced}
        degrees = _positive_degrees(a, self.reduced)
        if degrees is not None:
            dims = [0] * (max(degrees, default=0) + 1)
            local = []  # position of each basis vector among those of its degree
            for w in degrees:
                local.append(dims[w])
                dims[w] += 1
            items = {}
            for (r, c), v in self.reduced.entries.items():
                x, y = divmod(c, d)
                p, q = degrees[x], degrees[y]
                items.setdefault((p, q), {})[(local[r], local[x] * dims[q] + local[y])] = v
            self.dims = tuple(dims)
            self.mu = {(p, q): Matrix(f, dims[p + q], dims[p] * dims[q], e) for (p, q), e in items.items()}

    def layout(self, i, w, dims=None):
        """(size, {composition: offset}) of cell (i, w)."""
        dims = dims or self.dims
        offsets, total = {}, 0
        for comp in _compositions(w, i, dims):
            offsets[comp] = total
            total += prod(dims[p] for p in comp)
        return total, offsets

    def boundary(self, i, w=None):
        """d: cell (i, w) -> cell (i-1, w), the alternating sum of adjacent reduced products.

        ``w=None`` gives the whole term, the one cell of the zero grading.
        """
        f = self.f
        dims, mu = (self.dims, self.mu) if w is not None else ((self.d,), {(0, 0): self.reduced})
        src_dim, src_off = self.layout(i, w or 0, dims)
        dst_dim, dst_off = self.layout(i - 1, w or 0, dims)
        entries = {}
        for comp, col0 in src_off.items():
            sizes = [dims[p] for p in comp]
            for t in range(i - 1):
                p, q = comp[t], comp[t + 1]
                row0 = dst_off.get(comp[:t] + (p + q,) + comp[t + 2 :])
                if row0 is None or (p, q) not in mu:
                    continue
                before, after = prod(sizes[:t]), prod(sizes[t + 2 :])
                height, width = dims[p + q], sizes[t] * sizes[t + 1]
                for (r, c), v in mu[(p, q)].entries.items():
                    v = f.neg(v) if t % 2 else v
                    for b in range(before):
                        row, col = row0 + (b * height + r) * after, col0 + (b * width + c) * after
                        for x in range(after):
                            key = (row + x, col + x)
                            s = f.add(entries[key], v) if key in entries else v
                            if s:
                                entries[key] = s
                            else:
                                del entries[key]
        return Matrix(f, dst_dim, src_dim, entries)


def _positive_degrees(a, reduced):
    """Degrees of the basis of A_+ from ``a.degrees``, or None when they cannot grade the bar complex.

    They can when the augmentation is the coordinate vector of a degree-0
    index g, so that A_+ has the other coordinate vectors as its basis in
    order; every other index has degree >= 1; and the reduced product is
    homogeneous.  The degrees need not be sorted.
    """
    if a.degrees is None:
        return None
    support = [k for k, v in enumerate(a.augmentation) if v]
    if len(support) != 1 or a.augmentation[support[0]] != a.field.one:
        return None
    g = support[0]
    degrees = a.degrees[:g] + a.degrees[g + 1 :]
    if a.degrees[g] != 0 or min(degrees, default=1) < 1:
        return None
    d = len(degrees)
    for r, c in reduced.entries:
        x, y = divmod(c, d)
        if degrees[r] != degrees[x] + degrees[y]:
            return None
    return degrees


def _compositions(total, parts, dims):
    """Compositions of ``total`` into ``parts`` parts p <= len(dims) - 1 with dims[p] > 0."""
    top = len(dims) - 1
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        for p in range(max(0, remaining - top * (slots - 1)), min(top, remaining) + 1):
            if dims[p] > 0:
                rec(prefix + (p,), remaining - p, slots - 1)

    rec((), total, parts)
    return out


def bar_ext_table(a, imax, jmax=None):
    """Ext dims of the ground field over an algebra, via the reduced bar complex.

    Tor and Ext agree dimensionwise over a field.  The terms are ranked one
    internal-degree cell at a time (see ``_BarComplex``); graded input yields
    a bigraded table windowed by jmax <= truncation degree, and finite input
    sums each term over its cells.
    """
    if imax < 0:
        raise ValueError("imax must be >= 0")
    graded = isinstance(a, GradedAlgebra)
    if graded:
        top = a.top_degree
        jmax = top if jmax is None else jmax
        if jmax < 0:
            raise ValueError("jmax must be >= 0")
        if jmax > top:
            raise ValueError("jmax %d exceeds truncation degree %d" % (jmax, top))
    elif not isinstance(a, Algebra):
        raise TypeError("bar_ext_table expects an Algebra or GradedAlgebra")
    elif jmax is not None:
        raise ValueError("jmax applies to graded algebras only")
    bar = _BarComplex(a)
    cells = {}
    sizes, ranks = {}, {}  # of term i - 1: cell dims, and the ranks of d_(i-1) on them
    for i in range(imax + 2):
        weights = range(jmax + 1) if graded else range(i * (len(bar.dims) - 1) + 1)
        here = {w: bar.layout(i, w)[0] for w in weights}
        out = {w: bar.boundary(i, w).rank() for w, size in here.items() if i and size and sizes.get(w)}
        for w, size in sizes.items():
            cells[(i - 1, w)] = size - ranks.get(w, 0) - out.get(w, 0)
        sizes, ranks = here, out
    if graded:
        return ExtTable("graded", cells, imax, jmax, "entries computed from components of degree <= %d" % top)
    entries = dict.fromkeys(range(imax + 1), 0)
    for (i, _), v in cells.items():
        entries[i] += v
    return ExtTable("finite", entries, imax)


# ---------------------------------------------------------------------------
# modules over the dual algebra


class ModulePresentation:
    """A left module given by one action matrix per algebra basis element."""

    def __init__(self, algebra, dim, actions):
        if len(actions) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in actions:
            if m.nrows != dim or m.ncols != dim:
                raise ValueError("action matrix has wrong shape")
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(actions)

    def action_of(self, vec):
        f = self.algebra.field
        out = Matrix.zeros(f, self.dim, self.dim)
        for s, v in enumerate(vec):
            if v != f.zero:
                out = out + self.actions[s].scale(v)
        return out

    def __eq__(self, other):
        if not isinstance(other, ModulePresentation):
            return NotImplemented
        return self.algebra == other.algebra and self.dim == other.dim and self.actions == other.actions


def verify_module_axioms(p):
    """Unit acts as identity and the action respects the multiplication table."""
    a = p.algebra
    f = a.field
    if not (p.action_of(a.unit) == Matrix.identity(f, p.dim)):
        return False
    for x in range(a.dim):
        for y in range(a.dim):
            composed = p.actions[x] @ p.actions[y]
            if not (p.action_of(a.mult[x][y]) == composed):
                return False
    return True


def trivial_module(a):
    """The ground field through the augmentation."""
    if a.augmentation is None:
        raise ValueError("trivial module needs an augmented algebra")
    f = a.field
    acts = [Matrix(f, 1, 1, {(0, 0): v} if v != f.zero else {}) for v in a.augmentation]
    return ModulePresentation(a, 1, acts)


def free_module(a, rank):
    """A^rank with copy-major basis index c*dim + b."""
    f = a.field
    eye = Matrix.identity(f, rank)
    acts = [Matrix.kron(eye, a.left_action_matrix(s)) for s in range(a.dim)]
    return ModulePresentation(a, rank * a.dim, acts)


def direct_sum_modules(p, q):
    if p.algebra != q.algebra:
        raise ValueError("modules over different algebras")
    f = p.algebra.field
    acts = []
    for s in range(p.algebra.dim):
        items = [(r, c, v) for (r, c), v in p.actions[s].entries.items()]
        items += [(p.dim + r, p.dim + c, v) for (r, c), v in q.actions[s].entries.items()]
        acts.append(Matrix.from_entries(f, p.dim + q.dim, p.dim + q.dim, items))
    return ModulePresentation(p.algebra, p.dim + q.dim, acts)


def comodule_to_module(m, algebra=None):
    """Contract the coaction against dual-basis functionals.

    e^s . m_t picks the coefficients of e_s (x) m_j in the coaction of m_t;
    associativity of the result is exactly the stated multiplication
    convention on the dual algebra.
    """
    c = m.base
    a = algebra if algebra is not None else dual_algebra(c)
    f = c.field
    acts = []
    for s in range(c.dim):
        items = []
        for t in range(m.dim):
            for i, j, v in m.coaction[t]:
                if i == s:
                    items.append((j, t, v))
        acts.append(Matrix.from_entries(f, m.dim, m.dim, items))
    return ModulePresentation(a, m.dim, acts)


def module_to_comodule(c, p):
    """Inverse of comodule_to_module at finite dimension: nu(m) = sum e_t (x) e^t.m."""
    triples = [[] for _ in range(p.dim)]
    for s in range(c.dim):
        for (j, t), v in p.actions[s].entries.items():
            triples[t].append((s, j, v))
    return Comodule(c, p.dim, triples)


def module_hom_basis(p, q):
    """Basis of the space of module morphisms p -> q."""
    a = p.algebra
    f = a.field
    unknowns = q.dim * p.dim  # h[r, c] at index r*p.dim + c
    # one equation (q_s h - h p_s)[r, c] = 0 per (s, r, c), numbered in that order
    items = []
    for s in range(a.dim):
        base = s * unknowns
        for (r, k), v in q.actions[s].entries.items():
            items.extend((base + r * p.dim + c, k * p.dim + c, v) for c in range(p.dim))
        for (k, c), v in p.actions[s].entries.items():
            items.extend((base + r * p.dim + c, r * p.dim + k, f.neg(v)) for r in range(q.dim))
    system = Matrix.from_entries(f, a.dim * unknowns, unknowns, items)
    basis = system.kernel_basis()
    out = []
    for vec in basis.vectors:
        out.append(Matrix.from_entries(f, q.dim, p.dim, [(k // p.dim, k % p.dim, v) for k, v in enumerate(vec) if v != f.zero]))
    return out


def _free_cover(ambient_actions, basis_matrix, a):
    """Cover a submodule (given by a spanning matrix) by a free module.

    Returns (w, cover) where w = dim(K / A_+ K) and cover maps A^w into the
    ambient space with image exactly the submodule.
    """
    f = a.field
    ambient_dim = basis_matrix.nrows
    aug = a.augmentation
    pos_vectors = Matrix.from_entries(f, 1, a.dim, [(0, i, v) for i, v in enumerate(aug)]).kernel_basis()
    # images[s] is e_s acting on the spanning columns of K
    images = [act @ basis_matrix for act in ambient_actions]
    radical_cols = []
    for alpha in pos_vectors.vectors:
        image = Matrix.zeros(f, ambient_dim, basis_matrix.ncols)
        for s, v in enumerate(alpha):
            if v:
                image = image + images[s].scale(v)
        radical_cols.extend(image.column_dicts())
    chosen = extend_to_basis(f, ambient_dim, radical_cols, basis_matrix.column_dicts())
    image_cols = [m.column_dicts() for m in images]
    entries = {}
    for k, l in enumerate(chosen):
        for b in range(a.dim):
            entries.update(((r, k * a.dim + b), v) for r, v in image_cols[b][l].items())
    return len(chosen), Matrix(f, ambient_dim, len(chosen) * a.dim, entries)


def minimal_free_resolution(l, n):
    """Free-module betti numbers and chain maps for a module over its algebra.

    Returns (ws, chain) where ws[i] = rank of F_i for 0 <= i <= n and
    chain[0] maps F_0 onto the module, chain[i] maps F_i into F_{i-1}.
    """
    a = l.algebra
    f = a.field
    if a.augmentation is None:
        raise ValueError("free resolutions here require an augmented algebra")
    ambient_actions = l.actions
    basis = Matrix.identity(f, l.dim)
    ws = []
    chain = []
    for _ in range(n + 1):
        w, cover = _free_cover(ambient_actions, basis, a)
        ws.append(w)
        chain.append(cover)
        if cover.rank() != basis.ncols:
            raise AssertionError("free cover failed to surject onto the kernel")
        ambient_actions = free_module(a, w).actions
        basis = cover.kernel_matrix()
    return ws, chain


def module_ext(a, l, m, n):
    """Ext^i(l, m) dims for 0 <= i <= n over an augmented finite algebra."""
    if l.algebra != a or m.algebra != a:
        raise ValueError("modules are not over the given algebra")
    ws, chain = minimal_free_resolution(l, n + 1)
    f = a.field
    deltas = []
    for i in range(n + 1):
        w_next, w_here = ws[i + 1], ws[i]
        # column lp: the unit of the lp-th copy of A in F_{i+1}
        units = {(lp * a.dim + b, lp): v for lp in range(w_next) for b, v in enumerate(a.unit) if v}
        gens = Matrix(f, w_next * a.dim, w_next, units)
        items = []
        for (idx, lp), coeff in (chain[i + 1] @ gens).entries.items():
            lcopy, b = divmod(idx, a.dim)
            for (r, rp), v in m.actions[b].entries.items():
                items.append((lp * m.dim + r, lcopy * m.dim + rp, f.mul(coeff, v)))
        deltas.append(Matrix.from_entries(f, w_next * m.dim, w_here * m.dim, items))
    dims = []
    prev_rank = 0
    for i in range(n + 1):
        rank_i = deltas[i].rank()
        dims.append(ws[i] * m.dim - rank_i - prev_rank)
        prev_rank = rank_i
    return dims


def is_projective(p):
    """Projective iff the free cover splits; solved as a linear system."""
    a = p.algebra
    f = a.field
    w, cover = _free_cover(p.actions, Matrix.identity(f, p.dim), a)
    free = free_module(a, w)
    homs = module_hom_basis(p, free)
    if not homs:
        return p.dim == 0
    system = _flat_columns([cover @ h for h in homs])
    return system.solve_columns(_flat_columns([Matrix.identity(f, p.dim)])) is not None


def _flat_columns(mats):
    """Matrices of one shape as the columns of one matrix, each read row-major."""
    width = mats[0].ncols
    entries = {(r * width + c, k): v for k, m in enumerate(mats) for (r, c), v in m.entries.items()}
    return Matrix(mats[0].field, mats[0].nrows * width, len(mats), entries)


# ---------------------------------------------------------------------------
# the comparison theorem at finite scale


@dataclass(frozen=True)
class ComparisonReport:
    degrees: int
    comodule_dims: tuple
    module_dims: tuple
    agree: tuple
    ok: bool

    def to_json(self):
        return {
            "degrees": self.degrees,
            "comodule_dims": list(self.comodule_dims),
            "module_dims": list(self.module_dims),
            "agree": list(self.agree),
            "ok": self.ok,
        }


def comodule_ext_dims(c, l, m, n):
    """Ext in comodules via a minimal cofree coresolution of m and the cofree adjunction."""
    from cobarlab.resolve import minimal_coresolution

    res = minimal_coresolution(m, n + 1)
    f = c.field
    vdims = res.cogenerator_dims
    eps = c.counit_matrix()
    nu_l = l.coaction_matrix()
    deltas = []
    for i in range(n + 1):
        v_here, v_next = vdims[i], vdims[i + 1]
        d = res.differentials[i]  # J_i -> J_{i+1}
        entries = {}
        for r in range(v_here):
            for s in range(l.dim):
                phi = Matrix(f, v_here, l.dim, {(r, s): f.one})
                composite = kron_identity_matmul(eps, v_next, d @ kron_identity_matmul(c.dim, phi, nu_l))
                col = r * l.dim + s
                entries.update(((rr * l.dim + cc, col), v) for (rr, cc), v in composite.entries.items())
        deltas.append(Matrix(f, v_next * l.dim, v_here * l.dim, entries))
    dims = []
    prev_rank = 0
    for i in range(n + 1):
        rank_i = deltas[i].rank()
        dims.append(vdims[i] * l.dim - rank_i - prev_rank)
        prev_rank = rank_i
    return dims


def compare_theorem1(c, l, m, n):
    """Comodule-side and module-side Ext dims with a per-degree verdict.

    The two pipelines share only the exact linear algebra layer: the left
    side resolves m by cofree comodules, the right side resolves the
    transported module by free modules over the dual algebra.
    """
    report = validate(c)
    if not report.ok:
        raise ValueError("comparison base failed validation: %s" % (report.notes,))
    left = comodule_ext_dims(c, l, m, n)
    a = dual_algebra(c)
    right = module_ext(a, comodule_to_module(l, a), comodule_to_module(m, a), n)
    agree = tuple(x == y for x, y in zip(left, right))
    return ComparisonReport(n, tuple(left), tuple(right), agree, all(agree))


# ---------------------------------------------------------------------------
# initially-projective resolutions


@dataclass(frozen=True)
class InitiallyProjectiveResolution:
    algebra: Algebra
    target: ModulePresentation
    modules: tuple
    augmentation_map: Matrix
    maps: tuple  # maps[i]: modules[i+1] -> modules[i]
    projective_prefix_length: int


def build_initially_projective(a, target, modules, augmentation_map, maps):
    """Wrap and verify an augmented exact sequence of modules.

    Exactness is rechecked by ranks; the projective prefix length is the
    number of leading terms that verify projective via a splitting.
    """
    chain = [augmentation_map] + list(maps)
    pairs = [(target, modules[0])] + [(modules[i], modules[i + 1]) for i in range(len(maps))]
    for (dst, src), mat in zip(pairs, chain):
        if mat.nrows != dst.dim or mat.ncols != src.dim:
            raise ValueError("chain map has wrong shape")
        for s in range(a.dim):
            if not (dst.actions[s] @ mat == mat @ src.actions[s]):
                raise ValueError("chain map is not a module morphism")
    if augmentation_map.rank() != target.dim:
        raise ValueError("augmentation is not surjective")
    for i in range(1, len(chain)):
        outgoing, incoming = chain[i - 1], chain[i]
        if not (outgoing @ incoming).is_zero():
            raise ValueError("input sequence is not a complex")
        if outgoing.ncols - outgoing.rank() != incoming.rank():
            raise ValueError("input sequence is not exact")
    prefix = 0
    for p in modules:
        if is_projective(p):
            prefix += 1
        else:
            break
    return InitiallyProjectiveResolution(a, target, tuple(modules), augmentation_map, tuple(maps), prefix)


def free_resolution_as_initially_projective(l, n):
    """A fully projective instance built from the minimal free resolution."""
    a = l.algebra
    ws, chain = minimal_free_resolution(l, n)
    modules = tuple(free_module(a, w) for w in ws)
    return build_initially_projective(a, l, modules, chain[0], tuple(chain[1:]))


@dataclass(frozen=True)
class InitiallyProjectiveReport:
    dims: tuple
    true_dims: tuple
    agree: tuple
    projective_prefix_length: int


def ext_via_initially_projective(r, y, n):
    """H^i of Hom(resolution, y) for i <= n, against true Ext.

    The sequence is taken as terminating: degrees past its end contribute
    zero.  Agreement with true Ext is guaranteed (and asserted) for
    i <= projective_prefix_length; later degrees may disagree, which is the
    observable degradation when a term fails to be projective.
    """
    a = r.algebra
    f = a.field
    count = len(r.modules)
    hom_bases = [module_hom_basis(r.modules[i], y) if i < count else [] for i in range(n + 2)]
    deltas = []
    for i in range(n + 1):
        src_basis = hom_bases[i]
        dst_basis = hom_bases[i + 1]
        if not src_basis or not dst_basis:
            deltas.append(Matrix.zeros(f, len(dst_basis), len(src_basis)))
            continue
        sol = _flat_columns(dst_basis).solve_columns(_flat_columns([h @ r.maps[i] for h in src_basis]))
        if sol is None:
            raise AssertionError("composite escaped the morphism space")
        deltas.append(sol)
    dims = []
    prev_rank = 0
    for i in range(n + 1):
        rank_i = deltas[i].rank()
        dims.append(len(hom_bases[i]) - rank_i - prev_rank)
        prev_rank = rank_i
    true_dims = module_ext(a, r.target, y, n)
    agree = tuple(x == t for x, t in zip(dims, true_dims))
    for i in range(min(r.projective_prefix_length, n) + 1):
        if not agree[i]:
            raise AssertionError("mismatch inside the projective prefix at degree %d" % i)
    return InitiallyProjectiveReport(tuple(dims), tuple(true_dims), agree, r.projective_prefix_length)


# ---------------------------------------------------------------------------
# module extensions and the image of the comodule functor


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
    for x in range(a.dim):
        for y in range(a.dim):
            # c(xy) = act_m[x] c_y + c_x act_l[y]
            prod = a.mult[x][y]
            for r in range(m.dim):
                for c in range(l.dim):
                    coeffs = {}
                    for s, v in enumerate(prod):
                        if v != f.zero:
                            key = s * rows_per + r * l.dim + c
                            coeffs[key] = f.add(coeffs.get(key, f.zero), v)
                    for (rr, k), v in m.actions[x].entries.items():
                        if rr == r:
                            key = y * rows_per + k * l.dim + c
                            coeffs[key] = f.sub(coeffs.get(key, f.zero), v)
                    for (k, cc), v in l.actions[y].entries.items():
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
    return [vec for vec in system.kernel_basis().vectors]


def extension_module(l, m, data):
    """Assemble the module m (+) l from one extension datum."""
    a = l.algebra
    f = a.field
    rows_per = m.dim * l.dim
    acts = []
    for s in range(a.dim):
        items = [(r, c, v) for (r, c), v in m.actions[s].entries.items()]
        items += [(m.dim + r, m.dim + c, v) for (r, c), v in l.actions[s].entries.items()]
        for k in range(rows_per):
            v = data[s * rows_per + k]
            if v != f.zero:
                items.append((k // l.dim, m.dim + k % l.dim, v))
        acts.append(Matrix.from_entries(f, m.dim + l.dim, m.dim + l.dim, items))
    return ModulePresentation(a, m.dim + l.dim, acts)
