"""Dual algebras, bar-complex Ext, module Ext, and the comparison checks.

The multiplication on the dual of a coalgebra follows the convention
(fg)(c) = f(c_(2)) g(c_(1)): the coefficient of e^t in e^a e^b is the
coefficient of e_b (x) e_a in the comultiplication of e_t.  This is the
convention under which every comodule becomes a genuine left module over
the dual algebra via the contracted coaction; the transposed convention
breaks associativity of that action on noncocommutative examples, which is
what pins it.

A module is one action matrix, the mirror of the algebra's product, and the
free module A (x) k^w acts by mult (x) I_w.  Module Ext is computed from
minimal free resolutions: over these algebras the augmentation ideal is
nilpotent, so covers by A (x) (K / A_+ K) are surjective and kernels stay
finite.  Each step applies the ambient action block by block through
``kron_identity_matmul``, so no free module is built.  The bar complex gives an independent
route to the same numbers, split into the weight cells of the finest grading
that its reduced product respects, after the degree when the algebra has one
(Priddy, "Koszul resolutions", 1970; Peeva, "Graded syzygies", 2011): the
grading is read off the algebra's own product, never off the cobar side.  A
graded algebra enters as its flattening, which keeps the degrees, just as
the cobar complex flattens a graded coalgebra.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import add

from cobarlab.coalg import Coalgebra, Comodule, GradedCoalgebra, flatten, validate, validate_comodule
from cobarlab.exactlin import ColumnMatrix, Matrix, cohomology_dims, extend_to_basis, kron_identity_matmul, quotient_maps
from cobarlab.exttable import finest_grading, layouts, table_from_ranks, window


class Algebra:
    """Finite-dimensional associative unital algebra, optionally augmented.

    ``mult`` is the product A (x) A -> A as one sparse dim x dim^2
    ``Matrix``, whose column a*dim + b holds e_a e_b: the mirror of the
    dim^2 x dim ``Coalgebra.comul``, so the dual and opposite algebras each
    re-index one matrix.  unit and augmentation are coordinate vectors
    (the augmentation may be None).  ``degrees`` is optional metadata, one
    int per basis index, as on ``Coalgebra``; the bar complex splits by it
    when it grades the augmentation ideal.
    """

    def __init__(self, field, dim, unit, mult, augmentation=None, degrees=None):
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        if len(unit) != dim or mult.field != field or (mult.nrows, mult.ncols) != (dim, dim * dim):
            raise ValueError("unit or multiplication matrix has wrong shape")
        self.field = field
        self.dim = dim
        self.unit = tuple(field.coerce(v) for v in unit)
        self.mult = mult
        self.augmentation = None if augmentation is None else tuple(field.coerce(v) for v in augmentation)
        if degrees is not None:
            degrees = tuple(int(d) for d in degrees)
            if len(degrees) != dim:
                raise ValueError("degrees length != dim")
        self.degrees = degrees

    def multiply(self, u, v):
        """The product of two coordinate vectors: ``mult`` applied to u (x) v."""
        mul = self.field.mul
        return self.mult.apply([mul(x, y) for x in u for y in v])

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
    """Associativity, unitality, and the augmentation being a character.

    Each product m (x (x) y), with x or y an identity, is compared
    transposed: (x^T (x) y^T) m^T is what ``kron_identity_matmul`` computes
    without building the Kronecker product.
    """
    f = a.field
    n = a.dim
    mt = a.mult.transpose()
    if not (kron_identity_matmul(mt, n, mt) == kron_identity_matmul(n, mt, mt)):
        return False
    unit_row = Matrix.from_rows(f, [list(a.unit)], n)
    eye = Matrix.identity(f, n)
    if not (kron_identity_matmul(unit_row, n, mt) == eye and kron_identity_matmul(n, unit_row, mt) == eye):
        return False
    if a.augmentation is not None:
        aug = [(i, v) for i, v in enumerate(a.augmentation) if v]
        # eps(e_x e_y) = eps(e_x) eps(e_y) at row x*n + y
        pairs = Matrix(f, n * n, 1, {(x * n + y, 0): f.mul(u, v) for x, u in aug for y, v in aug})
        if not (mt @ Matrix.from_columns(f, [list(a.augmentation)], n) == pairs):
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
    # v e_i (x) e_j in comul(e_t), at row i*n + j: the second factor is eaten
    # first, so the coefficient lands in e^j e^i, at column j*n + i
    mult = Matrix(f, n, n * n, {(t, r % n * n + r // n): v for (r, t), v in c.comul.entries.items()})
    aug = [f.zero] * n
    aug[c.grouplike_index] = f.one
    return Algebra(f, n, c.counit, mult, aug, c.degrees)


def opposite_algebra(a):
    """The same basis with e_x e_y read as e_y e_x: column x*dim + y of the product moves to y*dim + x."""
    n = a.dim
    flipped = Matrix(a.field, n, n * n, {(t, c % n * n + c // n): v for (t, c), v in a.mult.entries.items()})
    return Algebra(a.field, n, a.unit, flipped, a.augmentation, a.degrees)


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
    f = field
    rels = [tuple(f.coerce(v) for v in vec) for vec in relations]
    if any(len(vec) != m * m for vec in rels):
        raise ValueError("relation vectors must live in the degree-2 component")
    projs = {}
    sections = {}
    dims = []
    for j in range(top + 1):
        # the degree-j part of the ideal, one row per word (x) relation (x) word
        items = []
        nrows = 0
        for s in range(j - 1):
            right = m ** (j - 2 - s)
            for r in rels:
                for wl in range(m**s):
                    for wr in range(right):
                        items += [(nrows, (wl * m * m + k) * right + wr, v) for k, v in enumerate(r) if v]
                        nrows += 1
        proj, section = quotient_maps(Matrix.from_entries(f, nrows, m**j, items))
        projs[j] = proj
        sections[j] = section
        dims.append(proj.nrows)
    comps = {}
    for p in range(top + 1):
        for q in range(top + 1 - p):
            # P (S_p (x) S_q), transposed: (I (x) S_q^T) (S_p^T (x) I) P^T
            left, right = sections[p], sections[q]
            inner = kron_identity_matmul(left.transpose(), right.nrows, projs[p + q].transpose())
            comps[(p, q)] = kron_identity_matmul(left.ncols, right.transpose(), inner).transpose()
    return GradedAlgebra(f, dims, comps)


# ---------------------------------------------------------------------------
# bar complexes


def _flat(a):
    """A graded algebra as one finite algebra that keeps its degrees, as ``flatten`` does a coalgebra; others as given."""
    return dual_algebra(flatten(graded_dual(a))) if isinstance(a, GradedAlgebra) else a


class _BarComplex:
    """Reduced bar complex of an augmented algebra, split into weight cells.

    A graded algebra is read as its flattening (``_flat``), as the cobar
    complex reads a graded coalgebra.  A_+ has ``d`` basis vectors, a basis
    of ker(augmentation), and ``reduced`` is the product on A_+ as one
    d x d^2 matrix, whose column x*d + y holds e_x e_y.  ``weights`` holds
    one weight tuple per basis vector of A_+: its degree when the algebra's
    ``degrees`` grade A_+ (``_positive_degrees``; a flattened graded algebra
    keeps its degrees), then its weight in the finest grading that the
    reduced product respects: ``exttable.finest_grading`` of one equation
    w(c) = w(a) + w(b) per nonzero coefficient of e_c in e_a e_b, with the
    product checked homogeneous in it here.  The grading is read off the
    algebra alone, never off the cobar weights, so that the two sides stay
    independent.

    ``factors`` lists the distinct weights in ascending order, each with the
    number of basis vectors of that weight, which keep their order in A_+;
    cell (i, W) of B_i = A_+^(x i) is laid out by ``exttable.layouts`` with
    these factors, and the one cell of term 0, at the zero weight, is k.
    ``mu[(p, q)]`` is the reduced product of factor p by factor q, into the
    factor of weight w_p + w_q, in local coordinates (column a*k_q + b).
    ``grading`` holds (the zero weight, factors, mu).  A product that
    respects no grading has the one weight (): one cell per term, the whole
    term.

    The boundary is d_i = (-1)^i mu (x) 1 + 1 (x) d_(i-1), the sum over t
    of (-1)^(i-t+1) times the product of slots t and t+1: its signs count
    from the right, so it is (-1)^i times the boundary whose signs count
    from the left, with the same ranks, and a copy keeps its values.  It
    keeps the weight.  A cell is its transpose, the cochain map d_i^T: cell
    (i-1, W)* -> cell (i, W)*, built straight into its columns, dicts {row:
    value}, and handed on as a ``ColumnMatrix``.  So in block p of cell
    (i-1, W), column (a, u) is column u of d_(i-1)^T on cell (i-1, W - w_p),
    shifted into the rows a (x) . of block p of cell (i, W), plus one
    shifted diagonal per entry of ``mu[(p', q')]`` with w_p' + w_q' = w_p,
    times (-1)^i, in block p'.  The two meet only where w_q' = 0, where
    they add.

    ``bar_ext_table`` ranks the cells with clearing in the cohomological
    direction, as the cobar sweep does, and builds a column of the top
    term only where rank must read it: not when it is cleared, nor when a
    row private to it certifies that it is independent (see ``sweep`` and
    ``_cells``).
    """

    def __init__(self, a):
        a = _flat(a)
        f = self.f = a.field
        if a.augmentation is None:
            raise ValueError("bar complex needs an augmented algebra")
        n = a.dim
        pos = Matrix.from_entries(f, 1, n, [(0, i, v) for i, v in enumerate(a.augmentation)]).kernel_basis()
        d = self.d = pos.ncols
        into = Matrix.from_columns(f, [a.unit, *pos.columns()], n)  # k (+) A_+ -> A
        # (P^T (x) P^T) mult^T, P the basis of A_+ as columns: row x*d + y holds the product of x and y
        pt = pos.transpose()
        products = kron_identity_matmul(pt, d, kron_identity_matmul(n, pt, a.mult.transpose()))
        sol = into.solve_columns(products.transpose())
        if sol is None:
            raise AssertionError("product of augmentation-ideal elements left the algebra")
        self.reduced = Matrix(f, d, d * d, {(r - 1, c): v for (r, c), v in sol.entries.items() if r >= 1})
        degrees = _positive_degrees(a, self.reduced)
        weights = finest_grading([(r, *divmod(c, d)) for r, c in self.reduced.entries], d)
        if degrees is not None:
            weights = [(deg,) + w for deg, w in zip(degrees, weights)]
        self.weights = weights
        factors, index, local = [], {}, [0] * d  # local: a basis vector's position among those of its weight
        for k in sorted(range(d), key=weights.__getitem__):
            if weights[k] not in index:
                index[weights[k]] = len(factors)
                factors.append([weights[k], 0])
            local[k] = factors[-1][1]
            factors[-1][1] += 1
        items = {}
        for (r, c), v in self.reduced.entries.items():
            x, y = divmod(c, d)
            if weights[r] != tuple(map(add, weights[x], weights[y])):
                raise AssertionError("the reduced product is not homogeneous in its detected grading")
            p, q = index[weights[x]], index[weights[y]]
            items.setdefault((p, q, index[weights[r]]), {})[(local[r], local[x] * factors[q][1] + local[y])] = v
        mu = {(p, q): Matrix(f, factors[s][1], factors[p][1] * factors[q][1], e) for (p, q, s), e in items.items()}
        zero = tuple(0 for _ in weights[0]) if weights else (0,) * (degrees is not None)  # the weight of term 0
        self.grading = zero, [tuple(fa) for fa in factors], mu

    def sweep(self, imax, jmax=None):
        """Sizes and ranks of the cells of terms 0 .. imax + 1, ranked with clearing.

        Returns ({(i, W): size}, {(i, W): rank of d_i on cell (i, W)}) over
        the cells of the layouts, none empty, whose degree W[0] is <= jmax
        when jmax is set; a missing rank is 0.  Clearing (see
        ``Matrix.rank``): d_(i+1)^T d_i^T = (d_i d_(i+1))^T is zero because
        the product of A_+ is associative, which ``bar_ext_table``
        validates, so the pivot rows of cell (i, W) may clear the columns of
        cell (i+1, W): both index cell (i, W) in the same layout.  They are
        kept for one term.

        The top term is ranked for its rank only, and ``_cells`` builds a
        column of it only where rank must read it.  A cleared column is
        deleted by the rank, so it is not built: term imax's pivot rows are
        handed to ``_cells`` as ``cleared`` before term imax + 1 starts.  A
        column that holds a row no other column of its cell holds is
        independent of all of them, so it is certified and counted, not
        built: rank = #certified + rank of the columns built.  The bar
        layout names such rows without building anything (see ``_cells``);
        Ripser skips its "apparent pairs" in the same way (Bauer, "Ripser",
        J. Appl. Comput. Topol. 2021).  Every cell is still built and
        ranked, and no rank is assumed, so the sweep stays independent of
        the cobar side.
        """
        sizes, ranks = {}, {}
        term, last, pivots, cleared = 0, {}, {}, {}
        for i, w, n, d in self._cells(self.grading, imax + 1, jmax, cleared):
            if i > term:
                term, last, pivots = i, pivots, cleared if i == imax else {}
            sizes[(i, w)] = n
            if i > imax:
                certified, _, d = d
                ranks[(i, w)] = len(certified) + (d.rank() if d.ncols else 0)
            elif i and d.ncols:
                ranks[(i, w)], pivots[w], _ = d.rank(last.pop(w, ()), pivots=True)
            del d  # the next cell is built without this one held
        return sizes, ranks

    def _cells(self, grading, top, jmax=None, cleared=None):
        """Yield (i, W, dim cell (i, W), d_i^T on it) for every cell of terms 0 .. top.

        ``grading`` is (zero weight, factors, mu), as the constructor sets
        it.  The cells are the layouts' cells, none empty, with a first
        weight coordinate <= jmax when jmax is set; d_0^T has no columns.
        See the class docstring for the recursion.  The rows of the cells
        below the top term are keyed by the layouts' shared ints; the top
        term's cells are never kept, and their rows are keyed by plain ints.

        ``cleared``, a dict {W: column indices}, is read once term ``top`` is
        reached, and then each top cell is yielded as (certified, built, d):
        the columns in ``cleared[W]`` and the certified ones are not built,
        and d holds the columns ``built``, in order.  Without it every
        column is built.

        Column (a, u), a in factor p, copies column u of the source S, d^T
        on cell (top-1, W - w_p), into rows a (x) r, r a row of S.  Row
        a (x) r is reached by the copies of the columns of S that hold r, by
        one diagonal entry per nonzero output of mu(a, y), y the first
        factor of r, and by no other column.  So when r is held by one
        column of S and mu(a, y) = 0, the row is private to (a, u), and the
        column is certified.  Holders of r are counted over every column of S, and
        counting too many only loses certifications, in every grading.  No
        cleared column is certified: a pivot row k of d_(top-1)^T is nonzero
        in some column x of it, and d_top^T x = 0 writes column k of the top
        cell as a combination of the others, so every row it holds is held
        by another column.
        """
        zero, factors, mu = grading
        f = self.f
        neg = f.p or 0  # -v is neg - v, reduced over GF(p)
        dims = [k for _, k in factors]
        into = {w: s for s, (w, _) in enumerate(factors)}
        # the index in A_+, ordered by weight, of the first basis vector of each factor
        first = [sum(dims[:q]) for q in range(len(dims))]
        # products[s]: (p', q', a, a', b', value) for row a of mu[(p', q')], in factor s, at column a' (x) b'
        products = [[] for _ in factors]
        # hits[p'][a']: the indices in A_+ of the b' with mu(a', b') nonzero
        hits = [[set() for _ in range(k)] for k in dims]
        for (p1, q1), m in mu.items():
            entries = products[into[tuple(map(add, factors[p1][0], factors[q1][0]))]]
            for (r, c), v in m.entries.items():
                x, y = divmod(c, dims[q1])
                entries.append((p1, q1, r, x, y, v))
                hits[p1][x].add(first[q1] + y)
        shapes = layouts({zero: [1, {}]}, factors, top, jmax)
        prev, uses, private = {}, {}, {}
        clear = free = ()  # below the top, or without ``cleared``, every column is built

        def release(blocks):
            for _, src in blocks.values():
                uses[src] -= 1
                if not uses[src]:
                    del prev[src]
                    private.pop(src, None)

        for i, (lower, needed, ints) in enumerate(shapes):
            cols, rows = lower[i - 1] if i else {}, lower[i]
            skip = cleared is not None and i == top
            # the diagonal values of d_i, (-1)^i times those of mu
            diagonals = [[(p1, q1, a, x, y, neg - v if i % 2 else v) for p1, q1, a, x, y, v in e] for e in products]
            for w in cols.keys() - rows.keys():  # a cell with no rows above it reads its sources for nothing
                release(cols[w][1])
            cur = {}
            for w, (n, targets) in rows.items():
                m, blocks = cols.get(w, (0, {}))
                out = [] if i > 1 else [{} for _ in range(m)]  # d_1 = 0
                if i == top:  # only the columns built, as pairs (index, column)
                    out = list(enumerate(out))
                if skip:
                    clear, certified = cleared.pop(w, ()), []
                for deg, (col, src) in blocks.items():
                    source = prev[src]
                    step, width = source.nrows, source.ncols
                    start = targets[deg][0] if step else 0  # a source without rows has only empty columns
                    if skip and src not in private:
                        private[src] = _private_columns(source, cols.get(src, (0, {})), lower[i - 2], first, dims)
                    runs = []  # runs[a]: the columns (a, u); at the top only those built, as pairs (index, column)
                    for a in range(dims[deg]):
                        r, c0 = start + a * step, col + a * width
                        if i < top:
                            run = [{ints[r + x]: v for x, v in c.items()} for c in source.cols]
                        else:
                            if skip:
                                hit, owned = hits[deg][a], private[src]
                                free = {u for u, ys in owned.items() if not ys <= hit} if hit else owned.keys()
                                certified += [c0 + u for u in free]
                            run = [
                                (c0 + u, {r + x: v for x, v in c.items()})
                                for u, c in enumerate(source.cols)
                                if u not in free and c0 + u not in clear
                            ]
                        runs.append(run)
                        out += run
                    for p1, q1, a, x, y, v in diagonals[deg]:
                        off, mid = targets[p1]
                        size, inner = cols[mid]
                        r = off + inner[q1][0] + x * size + y * width  # the row of the entry in column (a, 0)
                        if i < top:
                            pairs = zip(runs[a], ints[r : r + width])
                            if p1 != deg:
                                for column, k in pairs:
                                    column[k] = v
                                continue
                        else:  # column (a, u) is built as the pair (k, column), k = col + a * width + u
                            r -= col + a * width
                            if p1 != deg:
                                for k, column in runs[a]:
                                    column[r + k] = v
                                continue
                            pairs = [(column, r + k) for k, column in runs[a]]
                        for column, k in pairs:  # w_q' = 0: the diagonal meets the copy
                            s = f.add(column.pop(k, 0), v)
                            if s:
                                column[k] = s
                release(blocks)
                if i == top:
                    built, out = [k for k, _ in out], [column for _, column in out]
                d = ColumnMatrix(f, n, out)
                if skip:
                    d = certified, built, d
                if w in needed:
                    cur[w] = d
                yield i, w, n, d
                del d, out  # a top cell is not kept while the next one is built
            for w in needed.keys() - cur.keys():  # an empty cell (i, W): no rows, and the columns of cell (i-1, W)
                cur[w] = ColumnMatrix(f, 0, [{} for _ in range(cols[w][0])])
            prev, uses = cur, needed


def _private_columns(source, layout, below, first, dims):
    """{u: the first factors of the rows that column u of ``source`` holds alone}, for the u that hold one.

    ``layout`` is the source's row layout [dim, {q: (offset, (degree,))}],
    ``below`` the layouts one term down, and ``first`` and ``dims`` the
    index in A_+ of the first basis vector of each degree and their
    number; a factor is named by its index in A_+.
    """
    counts = Counter(chain.from_iterable(source.cols))
    factor = []  # the first factor of each row, in order
    for q, (_, v) in sorted(layout[1].items()):
        for y in range(first[q], first[q] + dims[q]):
            factor += repeat(y, below[v][0])
    owned = {}
    for u, c in enumerate(source.cols):
        ys = {factor[r] for r in c if counts[r] == 1}
        if ys:
            owned[u] = ys
    return owned


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


def bar_ext_table(a, imax, jmax=None):
    """Ext dims of the ground field over an algebra, via the reduced bar complex.

    Tor and Ext agree dimensionwise over a field.  The terms are ranked one
    weight cell at a time, in the cohomological direction with
    clearing (see ``_BarComplex.sweep``); graded input yields a bigraded
    table windowed by jmax <= truncation degree, and finite input sums each
    term over its cells.  Clearing needs the product to be associative, so
    an algebra that fails ``validate_algebra`` (a graded one, once
    flattened) raises ValueError naming ``algebra_valid``; it is checked
    before the bar complex is built.
    """
    if not isinstance(a, (Algebra, GradedAlgebra)):
        raise TypeError("bar_ext_table expects an Algebra or GradedAlgebra")
    top = a.top_degree if isinstance(a, GradedAlgebra) else None
    jmax = window(imax, jmax, top)
    a = _flat(a)
    if not validate_algebra(a):
        raise ValueError("bar complex input failed validation: algebra_valid")
    sizes, ranks = _BarComplex(a).sweep(imax, jmax)
    return table_from_ranks(sizes, ranks, 1, imax, jmax, top)


# ---------------------------------------------------------------------------
# modules over the dual algebra


class ModulePresentation:
    """A left module given by one sparse action matrix, the mirror of ``Algebra.mult``.

    ``action`` is dim x (algebra.dim * dim); its column s*dim + j holds
    e_s . m_j.  So the regular module's action is the product itself, and a
    comodule's coaction matrix is the same entries re-indexed.
    """

    def __init__(self, algebra, dim, action):
        if action.field != algebra.field or (action.nrows, action.ncols) != (dim, algebra.dim * dim):
            raise ValueError("action matrix has wrong shape")
        self.algebra = algebra
        self.dim = dim
        self.action = action

    def __eq__(self, other):
        if not isinstance(other, ModulePresentation):
            return NotImplemented
        return self.algebra == other.algebra and self.dim == other.dim and self.action == other.action


def verify_module_axioms(p):
    """Unit acts as identity and the action respects the product.

    rho (unit (x) 1) = 1 and rho (1 (x) rho) = rho (mult (x) 1), compared transposed as ``validate_algebra`` does.
    """
    a = p.algebra
    rt = p.action.transpose()
    unit_row = Matrix.from_rows(a.field, [list(a.unit)], a.dim)
    if not (kron_identity_matmul(unit_row, p.dim, rt) == Matrix.identity(a.field, p.dim)):
        return False
    return kron_identity_matmul(a.mult.transpose(), p.dim, rt) == kron_identity_matmul(a.dim, rt, rt)


def trivial_module(a):
    """The ground field through the augmentation: a 1 x dim row."""
    if a.augmentation is None:
        raise ValueError("trivial module needs an augmented algebra")
    return ModulePresentation(a, 1, Matrix.from_rows(a.field, [list(a.augmentation)], a.dim))


def free_module(a, rank):
    """A (x) k^rank with basis index b*rank + c, so that its action is mult (x) I_rank."""
    entries = {(t * rank + c, col * rank + c): v for (t, col), v in a.mult.entries.items() for c in range(rank)}
    return ModulePresentation(a, a.dim * rank, Matrix(a.field, a.dim * rank, a.dim * a.dim * rank, entries))


def comodule_to_module(m, algebra=None):
    """Contract the coaction against dual-basis functionals.

    e^i . m_t picks the coefficients of e_i (x) m_j in the coaction of m_t,
    at entry (j, i*dim + t); associativity of the result is exactly the
    stated multiplication convention on the dual algebra.
    """
    c = m.base
    a = algebra if algebra is not None else dual_algebra(c)
    d = m.dim
    entries = {(r % d, r // d * d + t): v for (r, t), v in m.coaction.entries.items()}
    return ModulePresentation(a, d, Matrix(c.field, d, c.dim * d, entries))


def module_to_comodule(c, p):
    """Inverse of comodule_to_module at finite dimension: nu(m) = sum e_t (x) e^t.m."""
    triples = [[] for _ in range(p.dim)]
    for (j, col), v in p.action.entries.items():
        s, t = divmod(col, p.dim)
        triples[t].append((s, j, v))
    return Comodule(c, p.dim, triples)


def module_hom_basis(p, q):
    """Basis of the space of module morphisms h: p -> q, that is of rho_q (1 (x) h) = h rho_p."""
    f = p.algebra.field
    pd = p.dim
    width = p.algebra.dim * pd
    # h[r, c] is unknown r*pd + c; entry (r, s*pd + c) of rho_q (1 (x) h) - h rho_p is equation r*width + s*pd + c
    items = []
    for (r, col), v in q.action.entries.items():
        s, k = divmod(col, q.dim)
        base = r * width + s * pd
        items.extend((base + c, k * pd + c, v) for c in range(pd))
    for (k, col), v in p.action.entries.items():
        items.extend((r * width + col, r * pd + k, f.neg(v)) for r in range(q.dim))
    system = Matrix.from_entries(f, q.dim * width, q.dim * pd, items)
    kernel = system.kernel_basis().column_dicts()
    return [Matrix.from_entries(f, q.dim, pd, [(*divmod(k, pd), v) for k, v in vec.items()]) for vec in kernel]


def _action_blocks(x, n):
    """The n column blocks of an action x with d rows: entry (t, s*d + j) lands at (t, j) of block s."""
    d = x.nrows
    blocks = [{} for _ in range(n)]
    for (t, col), v in x.entries.items():
        s, j = divmod(col, d)
        blocks[s][(t, j)] = v
    return blocks


def _free_cover(x, w, basis_matrix, a):
    """Cover the column span K of ``basis_matrix`` in the module with action x (x) I_w by a free module.

    Returns (w', cover) where w' = dim(K / A_+ K) and cover maps A (x) k^w'
    (basis b*w' + k) onto K.  e_s acts by column block s of x tensored with
    I_w, applied by ``kron_identity_matmul``: the ambient module is never built.
    """
    if a.augmentation is None:
        raise ValueError("free resolutions here require an augmented algebra")
    f = a.field
    d, m = basis_matrix.nrows, basis_matrix.ncols
    # images[s] is e_s acting on the spanning columns of K
    images = [kron_identity_matmul(Matrix(f, x.nrows, x.nrows, e), w, basis_matrix) for e in _action_blocks(x, a.dim)]
    pos = Matrix.from_entries(f, 1, a.dim, [(0, i, v) for i, v in enumerate(a.augmentation)]).kernel_basis()
    # A_+ K, one block of m columns per basis vector alpha of A_+, in a single pass
    terms = ((k * m, u, images[s]) for k, alpha in enumerate(pos.column_dicts()) for s, u in alpha.items())
    span = ((r, off + c, f.mul(u, v)) for off, u, image in terms for (r, c), v in image.entries.items())
    chosen = extend_to_basis(Matrix.from_entries(f, d, pos.ncols * m, span), basis_matrix)
    w_cover = len(chosen)
    where = {col: k for k, col in enumerate(chosen)}
    entries = {}
    for b, image in enumerate(images):
        entries.update(((r, b * w_cover + where[c]), v) for (r, c), v in image.entries.items() if c in where)
    return w_cover, Matrix(f, d, a.dim * w_cover, entries)


def minimal_free_resolution(l, n):
    """Free-module betti numbers and chain maps for a module over its algebra.

    Returns (ws, chain) where ws[i] = rank of F_i = A (x) k^ws[i] for
    0 <= i <= n and chain[0] maps F_0 onto the module, chain[i] maps F_i
    into F_(i-1).  Past step 0 the ambient action is mult (x) I_w, so no
    free module is built.
    """
    a = l.algebra
    x, w = l.action, 1
    basis = Matrix.identity(a.field, l.dim)
    ws = []
    chain = []
    for _ in range(n + 1):
        w, cover = _free_cover(x, w, basis, a)
        ws.append(w)
        chain.append(cover)
        if cover.rank() != basis.ncols:
            raise AssertionError("free cover failed to surject onto the kernel")
        x = a.mult
        basis = cover.kernel_basis()
    return ws, chain


def module_ext(a, l, m, n):
    """Ext^i(l, m) dims for 0 <= i <= n over an augmented finite algebra."""
    if l.algebra != a or m.algebra != a:
        raise ValueError("modules are not over the given algebra")
    ws, chain = minimal_free_resolution(l, n + 1)
    f = a.field
    blocks = _action_blocks(m.action, a.dim)
    unit = [(b, v) for b, v in enumerate(a.unit) if v]
    deltas = []
    for i in range(n + 1):
        w_next, w_here = ws[i + 1], ws[i]
        # column lp: the unit times the lp-th generator of F_(i+1)
        gens = Matrix(f, a.dim * w_next, w_next, {(b * w_next + lp, lp): v for lp in range(w_next) for b, v in unit})
        items = []
        for (idx, lp), coeff in (chain[i + 1] @ gens).entries.items():
            b, lcopy = divmod(idx, w_here)
            for (r, rp), v in blocks[b].items():
                items.append((lp * m.dim + r, lcopy * m.dim + rp, f.mul(coeff, v)))
        deltas.append(Matrix.from_entries(f, w_next * m.dim, w_here * m.dim, items))
    return cohomology_dims(deltas)


def is_projective(p):
    """Projective iff the free cover splits; solved as a linear system."""
    a = p.algebra
    f = a.field
    w, cover = _free_cover(p.action, 1, Matrix.identity(f, p.dim), a)
    homs = module_hom_basis(p, free_module(a, w))
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


class ComparisonReport:
    __slots__ = ("degrees", "comodule_dims", "module_dims", "agree", "ok")

    def __init__(self, degrees, comodule_dims, module_dims, agree, ok):
        self.degrees = degrees
        self.comodule_dims = comodule_dims
        self.module_dims = module_dims
        self.agree = agree
        self.ok = ok

    def to_json(self):
        return {
            "degrees": self.degrees,
            "comodule_dims": list(self.comodule_dims),
            "module_dims": list(self.module_dims),
            "agree": list(self.agree),
            "ok": self.ok,
        }


def _hom_differential(c, d, nu_l, v_here, v_next):
    """The map Hom_k(L, V_i) -> Hom_k(L, V_(i+1)), phi -> (eps (x) 1) d (1 (x) phi) nu_L, as one matrix.

    The map is linear in phi.  With D' = (eps (x) 1) d, v_next x (dim C * v_here),
    the entry at row (t, s'), column (r, s) is sum_c D'[t, (c, r)] nu_L[(c, s), s'],
    indices row-major: the product of D' read as rows (t, r) and columns c with
    nu_L read as rows c and columns (s, s'), both grouped by c.
    """
    f = c.field
    dl = nu_l.ncols
    d_eps = kron_identity_matmul(c.counit_matrix(), v_next, d)
    left = {}
    for (t, col), x in d_eps.entries.items():
        k, r = divmod(col, v_here)
        left[(t * v_here + r, k)] = x
    right = {}
    for (row, s2), y in nu_l.entries.items():
        k, s = divmod(row, dl)
        right[(k, s * dl + s2)] = y
    z = Matrix(f, v_next * v_here, c.dim, left) @ Matrix(f, c.dim, dl * dl, right)
    entries = {}
    for (tr, ss), x in z.entries.items():
        t, r = divmod(tr, v_here)
        s, s2 = divmod(ss, dl)
        entries[(t * dl + s2, r * dl + s)] = x
    return Matrix(f, v_next * dl, v_here * dl, entries)


def comodule_ext_dims(c, l, m, n):
    """Ext in comodules via a minimal cofree coresolution of m and the cofree adjunction."""
    from cobarlab.resolve import minimal_coresolution

    res = minimal_coresolution(m, n + 1)
    v, nu_l = res.cogenerator_dims, l.coaction
    return cohomology_dims(_hom_differential(c, d, nu_l, v[i], v[i + 1]) for i, d in enumerate(res.differentials))


def compare_theorem1(c, l, m, n):
    """Comodule-side and module-side Ext dims with a per-degree verdict.

    The two pipelines share only the exact linear algebra layer: the left
    side resolves m by cofree comodules, the right side resolves the
    transported module by free modules over the dual algebra.  The base must
    validate as a coalgebra and l and m as comodules over it.
    """
    report = validate(c)
    if not report.ok:
        raise ValueError("comparison base failed validation: %s" % report.reasons)
    for side, com in (("left", l), ("right", m)):
        if com.base is not c and com.base != c:
            raise ValueError("comparison %s comodule is not over the given coalgebra" % side)
        report = validate_comodule(com)
        if not report.ok:
            raise ValueError("comparison %s comodule failed validation: %s" % (side, report.reasons))
    left = comodule_ext_dims(c, l, m, n)
    a = dual_algebra(c)
    right = module_ext(a, comodule_to_module(l, a), comodule_to_module(m, a), n)
    agree = tuple(x == y for x, y in zip(left, right))
    return ComparisonReport(n, tuple(left), tuple(right), agree, all(agree))


# ---------------------------------------------------------------------------
# initially-projective resolutions


class InitiallyProjectiveResolution:
    __slots__ = ("algebra", "target", "modules", "augmentation_map", "maps", "projective_prefix_length")

    def __init__(self, algebra, target, modules, augmentation_map, maps, projective_prefix_length):
        self.algebra = algebra
        self.target = target  # the ModulePresentation resolved
        self.modules = modules
        self.augmentation_map = augmentation_map
        self.maps = maps  # maps[i]: modules[i+1] -> modules[i]
        self.projective_prefix_length = projective_prefix_length


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
        # rho_dst (1 (x) mat) = mat rho_src, compared transposed
        mt = mat.transpose()
        if not (kron_identity_matmul(a.dim, mt, dst.action.transpose()) == src.action.transpose() @ mt):
            raise ValueError("chain map is not a module morphism")
    # read as a cochain ending target -> 0: dims[0] is the augmentation's cokernel, dims[i] the homology at modules[i - 1]
    dims = cohomology_dims([*chain[::-1], Matrix.zeros(a.field, 0, target.dim)])[::-1]
    if dims[0]:
        raise ValueError("augmentation is not surjective")
    for i in range(1, len(chain)):
        if not (chain[i - 1] @ chain[i]).is_zero():
            raise ValueError("input sequence is not a complex")
        if dims[i]:
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


class InitiallyProjectiveReport:
    __slots__ = ("dims", "true_dims", "agree", "projective_prefix_length")

    def __init__(self, dims, true_dims, agree, projective_prefix_length):
        self.dims = dims
        self.true_dims = true_dims
        self.agree = agree
        self.projective_prefix_length = projective_prefix_length


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
    dims = cohomology_dims(deltas)
    true_dims = module_ext(a, r.target, y, n)
    agree = tuple(x == t for x, t in zip(dims, true_dims))
    for i in range(min(r.projective_prefix_length, n) + 1):
        if not agree[i]:
            raise AssertionError("mismatch inside the projective prefix at degree %d" % i)
    return InitiallyProjectiveReport(tuple(dims), tuple(true_dims), agree, r.projective_prefix_length)

