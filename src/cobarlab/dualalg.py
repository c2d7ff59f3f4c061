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

from collections import Counter
from itertools import chain, repeat

from cobarlab.coalg import Coalgebra, Comodule, GradedCoalgebra, validate, validate_comodule
from cobarlab.exactlin import ColumnMatrix, Matrix, extend_to_basis, kron_identity_matmul, quotient_maps
from cobarlab.exttable import ExtTable, graded_table, layouts


class Algebra:
    """Finite-dimensional associative unital algebra, optionally augmented.

    ``mult`` is the product A (x) A -> A as one sparse dim x dim^2
    ``Matrix``, whose column a*dim + b holds e_a e_b: the mirror of
    ``Coalgebra.comul_matrix``, so the dual and opposite algebras cost the
    number of its nonzeros.  unit and augmentation are coordinate vectors
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

    def left_action_matrix(self, a):
        """Left multiplication by basis element a: columns a*dim .. a*dim + dim - 1 of ``mult``."""
        n = self.dim
        lo = a * n
        return Matrix(self.field, n, n, {(t, c - lo): v for (t, c), v in self.mult.entries.items() if lo <= c < lo + n})

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
    # v e_i (x) e_j in comul(e_t): the second factor is eaten first, so the
    # coefficient lands in e^j e^i; the triples are distinct and nonzero
    mult = Matrix(f, n, n * n, {(t, j * n + i): v for t in range(n) for i, j, v in c.comul[t]})
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


def validate_graded_algebra(a):
    """Unit components are identities and the product is associative, as ``validate_algebra`` checks it."""
    f = a.field
    top = a.top_degree
    dims = a.dims
    for q in range(top + 1):
        eye = Matrix.identity(f, dims[q])
        if not (a.component(0, q) == eye and a.component(q, 0) == eye):
            return False
    mt = {key: m.transpose() for key, m in a.components.items()}
    for p in range(top + 1):
        for q in range(top + 1 - p):
            for r in range(top + 1 - p - q):
                first = kron_identity_matmul(mt[(p, q)], dims[r], mt[(p + q, r)])
                second = kron_identity_matmul(dims[p], mt[(q, r)], mt[(p, q + r)])
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
            comps[(p, q)] = projs[p + q] @ Matrix.kron(sections[p], sections[q])
    return GradedAlgebra(f, dims, comps)


# ---------------------------------------------------------------------------
# bar complexes


class _BarComplex:
    """Reduced bar complex of an augmented algebra, split into internal-degree cells.

    A_+ has ``dims[p]`` basis vectors of degree p, and ``mu[(p, q)]`` is the
    reduced product A_p (x) A_q -> A_{p+q} (column index a*dims[q] + b).  A
    graded algebra gives its components.  A finite algebra gives ``reduced``,
    the product on A_+ = ker(augmentation), graded by its ``degrees`` when
    ``_positive_degrees`` accepts them and by the zero grading (one cell per
    term, the whole term) otherwise.

    Cell (i, w) of B_i = A_+^(x i) is laid out by ``exttable.layouts``, one
    factor ((p,), dims[p]) per degree p and keyed (w,); cell (0, 0) is k.

    The boundary is d_i = mu (x) 1 - 1 (x) d_(i-1), and it keeps the degree.
    A cell is its transpose, the cochain map d_i^T: cell (i-1, w)* -> cell
    (i, w)*, built straight into its columns, dicts {row: value}, and handed
    on as a ``ColumnMatrix``.  So in block p of cell (i-1, w), column (a, u)
    is column u of d_(i-1)^T on cell (i-1, w-p), negated and shifted into
    the rows a (x) . of block p of cell (i, w), plus one shifted diagonal
    per entry of ``mu[(p', q')]`` with p' + q' = p, in block p'.  The two
    meet only in the zero grading, where they add.

    ``bar_ext_table`` ranks the cells with clearing in the cohomological
    direction, as the cobar sweep does, and builds a column of the top
    term only where rank must read it: not when it is cleared, nor when a
    row private to it certifies that it is independent (see ``sweep`` and
    ``_cells``).
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
        d = self.d = pos.ncols
        into = Matrix.from_columns(f, [a.unit, *pos.columns()], n)  # k (+) A_+ -> A
        # (P^T (x) P^T) mult^T, P the basis of A_+ as columns: row x*d + y holds the product of x and y
        pt = pos.transpose()
        products = kron_identity_matmul(pt, d, kron_identity_matmul(n, pt, a.mult.transpose()))
        # transposed in column-major order: the order of the cells' entries follows that of the solve's rows
        sol = into.solve_columns(Matrix(f, n, d * d, {(t, c): v for (c, t), v in sorted(products.entries.items())}))
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

    def sweep(self, imax, jmax=None):
        """Sizes and ranks of the cells of terms 0 .. imax + 1, ranked with clearing.

        Returns ({(i, w): size}, {(i, w): rank of d_i on cell (i, w)}), over
        the degrees w <= jmax, or every degree of term i when jmax is None.
        Clearing (see ``Matrix.rank``): d_(i+1)^T d_i^T = (d_i d_(i+1))^T is
        zero because the product of A_+ is associative, which
        ``bar_ext_table`` validates, so the pivot rows of cell (i, w) may
        clear the columns of cell (i+1, w): both index cell (i, w) in the
        same layout.  They are kept for one term.

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
        for i, w, n, d in self._cells(self.dims, self.mu, imax + 1, jmax, cleared):
            if i > term:
                term, last, pivots = i, pivots, cleared if i == imax else {}
            sizes[(i, w)] = n
            if i > imax:
                certified, _, d = d
                ranks[(i, w)] = len(certified) + (d.rank() if n and d.ncols else 0)
            elif i and n and d.ncols:
                ranks[(i, w)], pivots[w], _ = d.rank(last.pop(w, ()), pivots=True)
            del d  # the next cell is built without this one held
        return sizes, ranks

    def _cells(self, dims, mu, top, jmax=None, cleared=None):
        """Yield (i, w, dim cell (i, w), d_i^T on it) for every degree w of terms 0 .. top.

        The degrees are w <= jmax, or every degree of term i when jmax is
        None; an empty cell has dim 0.  d_0^T has no columns.  See the class
        docstring for the recursion.

        ``cleared``, a dict {w: column indices}, is read once term ``top`` is
        reached, and then each top cell is yielded as (certified, built, d):
        the columns in ``cleared[w]`` and the certified ones are not built,
        and d holds the columns ``built``, in order.  Without it every
        column is built.

        Column (a, u), a in A_p, copies column u of the source S = cell
        (top-1, w-p) into rows a (x) r, r a row of S.  Row a (x) r is
        reached by the copies of the columns of S that hold r, by one
        diagonal entry per nonzero output of mu(a, y), y the first factor of
        r, and by no other column.  So when r is held by one column of S and
        mu(a, y) = 0, the row is private to (a, u), and the column is
        certified.  Holders of r are counted over every column of S, and
        counting too many only loses certifications, in every grading.  No
        cleared column is certified: a pivot row k of d_(top-1)^T is nonzero
        in some column x of it, and d_top^T x = 0 writes column k of the top
        cell as a combination of the others, so every row it holds is held
        by another column.
        """
        f = self.f
        neg = f.p or 0  # -v is neg - v, reduced over GF(p)
        span = len(dims) - 1
        products = {}  # p' + q' -> [(p', q', [(a, a', b', value)])]: row a of mu[(p', q')] at column a' (x) b'
        first = [sum(dims[:q]) for q in range(span + 1)]  # the index in A_+ of the first basis vector of A_q
        hits = {}  # (p', a') -> the indices in A_+ of the b' with mu(a', b') nonzero
        for (p1, q1), m in mu.items():
            entries = [(r, *divmod(c, dims[q1]), v) for (r, c), v in m.entries.items()]
            if entries:
                products.setdefault(p1 + q1, []).append((p1, q1, entries))
            for _, x, y, _ in entries:
                hits.setdefault((p1, x), set()).add(first[q1] + y)
        shapes = layouts({(0,): [1, {}]}, [((deg,), k) for deg, k in enumerate(dims)], top, jmax)
        prev, uses, private = {}, {}, {}
        clear = free = ()  # below the top, or without ``cleared``, every column is built
        for i, (lower, needed, ints) in enumerate(shapes):
            cols, rows = lower[i - 1] if i else {}, lower[i]
            skip = cleared is not None and i == top
            cur, flips = {}, {}  # flips[src]: {v: -v} over the values of source src, so copies share their ints
            for w in range(i * span + 1) if jmax is None else range(jmax + 1):
                n, targets = rows.get((w,), (0, {}))
                m, blocks = cols.get((w,), (0, {}))
                out = [] if i > 1 else [{} for _ in range(m)]  # d_1 = 0
                if skip:
                    clear, certified = cleared.pop(w, ()), []
                for deg, (col, src) in blocks.items():
                    source = prev[src]
                    step, width = source.nrows, source.ncols
                    start = targets[deg][0] if step else 0  # a source without rows has only empty columns
                    if skip and src not in private:
                        private[src] = _private_columns(source, cols.get(src, (0, {})), lower[i - 2], first, dims)
                    if src not in flips:
                        flips[src] = {v: neg - v for v in set(chain.from_iterable(map(dict.values, source.cols)))}
                    flip = flips[src]
                    for a in range(dims[deg]):
                        r, c0 = start + a * step, len(out)
                        if skip:
                            hit = hits.get((deg, a), frozenset())
                            free = {u for u, ys in private[src].items() if not ys <= hit}
                            certified += [c0 + u for u in free]
                        out += [
                            None if u in free or c0 + u in clear else {ints[r + x]: flip[v] for x, v in c.items()}
                            for u, c in enumerate(source.cols)
                        ]
                    for p1, q1, entries in products.get(deg, ()):
                        off, mid = targets[p1]
                        size, inner = cols[mid]
                        base = off + inner[q1][0]
                        for a, x, y, v in entries:
                            r, c = base + x * size + y * width, col + a * width
                            diagonal = zip(out[c : c + width], ints[r : r + width])
                            if p1 != deg:
                                for column, k in diagonal:
                                    if column is not None:  # None: a top column left unbuilt
                                        column[k] = v
                                continue
                            for column, k in diagonal:  # the zero grading: the diagonal meets the copy
                                if column is not None:
                                    s = f.add(column.pop(k, 0), v)
                                    if s:
                                        column[k] = s
                    uses[src] -= 1
                    if not uses[src]:
                        del prev[src]
                        private.pop(src, None)
                if skip:
                    built = [k for k, c in enumerate(out) if c is not None]
                    d = certified, built, ColumnMatrix(f, n, [out[k] for k in built])
                else:
                    d = ColumnMatrix(f, n, out)
                if (w,) in needed:
                    cur[(w,)] = d
                yield i, w, n, d
                del d, out  # a top cell is not kept while the next one is built
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
    internal-degree cell at a time, in the cohomological direction with
    clearing (see ``_BarComplex.sweep``); graded input yields a bigraded
    table windowed by jmax <= truncation degree, and finite input sums each
    term over its cells.  Clearing needs the product to be associative, so
    an algebra that fails ``validate_algebra`` (a graded one,
    ``validate_graded_algebra``) raises ValueError naming ``algebra_valid``.
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
    if not (validate_graded_algebra(a) if graded else validate_algebra(a)):
        raise ValueError("bar complex input failed validation: algebra_valid")
    sizes, ranks = _BarComplex(a).sweep(imax, jmax)
    cells = {(i, w): n - ranks.get((i, w), 0) - ranks.get((i + 1, w), 0) for (i, w), n in sizes.items() if i <= imax}
    if graded:
        return graded_table(cells, imax, jmax, top)
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
        """The action of sum_s vec[s] e_s, for a sparse vector vec = {s: nonzero value}."""
        out = Matrix.zeros(self.algebra.field, self.dim, self.dim)
        for s, v in vec.items():
            out = out + self.actions[s].scale(v)
        return out

    def __eq__(self, other):
        if not isinstance(other, ModulePresentation):
            return NotImplemented
        return self.algebra == other.algebra and self.dim == other.dim and self.actions == other.actions


def verify_module_axioms(p):
    """Unit acts as identity and the action respects the product."""
    a = p.algebra
    if not (p.action_of({s: v for s, v in enumerate(a.unit) if v}) == Matrix.identity(a.field, p.dim)):
        return False
    products = a.mult.column_dicts()  # column x*dim + y: e_x e_y
    for x in range(a.dim):
        for y in range(a.dim):
            if not (p.action_of(products[x * a.dim + y]) == p.actions[x] @ p.actions[y]):
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
    """A^rank with copy-major basis index c*dim + b: each action is block diagonal, rank copies.

    The block of e_s is its left action, columns s*dim .. s*dim + dim - 1
    of the product, all read in one pass.
    """
    n = a.dim
    offsets = range(0, rank * n, n)
    blocks = [[] for _ in range(n)]
    for (t, c), v in a.mult.entries.items():
        s, b = divmod(c, n)
        blocks[s].append((t, b, v))
    acts = [{(k + t, k + b): v for k in offsets for t, b, v in block} for block in blocks]
    return ModulePresentation(a, rank * n, [Matrix(a.field, rank * n, rank * n, e) for e in acts])


def comodule_to_module(m, algebra=None):
    """Contract the coaction against dual-basis functionals.

    e^s . m_t picks the coefficients of e_s (x) m_j in the coaction of m_t;
    associativity of the result is exactly the stated multiplication
    convention on the dual algebra.
    """
    c = m.base
    a = algebra if algebra is not None else dual_algebra(c)
    items = [[] for _ in range(c.dim)]
    for t in range(m.dim):
        for i, j, v in m.coaction[t]:
            items[i].append((j, t, v))
    return ModulePresentation(a, m.dim, [Matrix.from_entries(c.field, m.dim, m.dim, s) for s in items])


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
    kernel = system.kernel_basis().column_dicts()
    return [Matrix.from_entries(f, q.dim, p.dim, [(*divmod(k, p.dim), v) for k, v in vec.items()]) for vec in kernel]


def _free_cover(ambient_actions, basis_matrix, a):
    """Cover a submodule (given by a spanning matrix) by a free module.

    Returns (w, cover) where w = dim(K / A_+ K) and cover maps A^w into the
    ambient space with image exactly the submodule.
    """
    f = a.field
    ambient_dim = basis_matrix.nrows
    aug = a.augmentation
    pos = Matrix.from_entries(f, 1, a.dim, [(0, i, v) for i, v in enumerate(aug)]).kernel_basis()
    # images[s] is e_s acting on the spanning columns of K
    images = [act @ basis_matrix for act in ambient_actions]
    radical = [Matrix.zeros(f, ambient_dim, 0)]
    for alpha in pos.columns():
        image = Matrix.zeros(f, ambient_dim, basis_matrix.ncols)
        for s, v in enumerate(alpha):
            if v:
                image = image + images[s].scale(v)
        radical.append(image)
    chosen = extend_to_basis(Matrix.hstack(radical), basis_matrix)
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
        basis = cover.kernel_basis()
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
    vdims = res.cogenerator_dims
    nu_l = l.coaction_matrix()
    dims = []
    prev_rank = 0
    for i in range(n + 1):
        rank_i = _hom_differential(c, res.differentials[i], nu_l, vdims[i], vdims[i + 1]).rank()
        dims.append(vdims[i] * l.dim - rank_i - prev_rank)
        prev_rank = rank_i
    return dims


def compare_theorem1(c, l, m, n):
    """Comodule-side and module-side Ext dims with a per-degree verdict.

    The two pipelines share only the exact linear algebra layer: the left
    side resolves m by cofree comodules, the right side resolves the
    transported module by free modules over the dual algebra.  The base must
    validate as a coalgebra and l and m as comodules.
    """
    report = validate(c)
    if not report.ok:
        raise ValueError("comparison base failed validation: %s" % report.reasons)
    for side, com in (("left", l), ("right", m)):
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

