"""Reduced cobar complexes and Ext tables of conilpotent coalgebras.

For a finite coalgebra the complex is k -> C_+ -> C_+ (x) C_+ -> ..., or
M -> C_+ (x) M -> ... with coefficients in a comodule M.  The differential is
the alternating sum of reduced-comultiplication insertions, slot t of an
i-tensor carrying sign (-1)^(t+1); with coefficients the reduced coaction is
inserted in the last slot with sign (-1)^(i+2).  H^i is Ext^i_C(k, M).

Every complex is split into cells by the finest additive weight grading of its
structure constants (Adams, "On the cobar construction", PNAS 1956): the
rational solutions of w_t = w_i + w_j, one equation per nonzero term e_i (x)
e_j of the reduced comultiplication of e_t, and w_m = w_c + w_m' per nonzero
term c (x) m' of the reduced coaction of m.  Cell (i, W) is the
lexicographically sorted list of i-tensors of total weight W, laid out by
``exttable.layouts`` with one factor (w_a, 1) per positive index a.  The
differential is the derivation d(a (x) t) = D(a) (x) t - a (x) d(t) extending
the reduced comultiplication D (d_0 is the reduced coaction), so block a of
d_i on cell W is a shifted diagonal of value v per term v p (x) q of D(a),
plus d_(i-1) on cell W - w_a negated and shifted; entries that meet add.  Each
cell is built straight into its columns, dicts {row: value}, and handed on as
a ``ColumnMatrix``, so block a copies whole columns of d_(i-1) and rank reads
the columns as they are.  d preserves W, so one sweep builds each layer's cell
differentials from the last layer's, checks d^2 = 0 on every cell pair it
builds and ranks each cell.  A graded coalgebra is flattened with its internal
degree as the first weight coordinate, which gives the (i, j) tables.  The
zero grading has one cell per degree: the whole term, which the cohomology and
product functions read through ``diff(i, None)``.

Each cell is ranked with clearing (Chen-Kerber, "Persistent homology
computation with a twist", EuroCG 2011; Bauer-Kerber-Reininghaus, "Clear and
compress", 2014).  Rank reports a nonsingular maximal minor of d_(i-1) on cell
W: its pivot rows S, which index cell (i, W), and its pivot columns K.  The
columns K are independent and there are rank d_(i-1) of them, so they span
im d_(i-1), and d_i d_(i-1) = 0 holds exactly when d_i kills the columns K;
the sweep checks that before it ranks d_i.  The coordinates outside S span a
complement of im d_(i-1), on which d_i then vanishes, so rank d_i is the rank
of d_i with the columns in S deleted, and almost every column left is a pivot.
The pivots of that rank check and clear the next layer; no layer follows the
top one, so its pivots are never collected.

The top layer is built only where Ext can live.  In a minimal injective
coresolution M -> C (x) V_0 -> C (x) V_1 -> ... of a conilpotent C, V_i is
Ext^i_C(k, M) and a subquotient of C_+ (x) V_(i-1), weights included (Priddy,
"Koszul resolutions", 1970; Polishchuk-Positselski, "Quadratic algebras",
ch. 1).  So Ext^imax vanishes in weight W unless W = W' + w_a for a positive
index a and a weight W' where Ext^(imax-1) does not vanish, and a top cell
outside that support bound is never built: its Ext is 0, so its rank is
n - rank d_(imax-1).  The bound needs two things, both read off the input,
and without either every top cell is built.  C must be conilpotent, which
the sweep takes from an acyclic term graph of D (t -> i and t -> j for each
term e_i (x) e_j of D(e_t)); and imax >= 3, so that the full d^2 check of
layer 2 certifies that D is coassociative, and d^2 = 0 holds on the cells
left unbuilt, which get no check of their own.

The top layer is ranked once per orbit of the coalgebra's permutation
automorphisms (orbit pruning as in McKay-Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 2014).  Let s permute the positive
basis so that D(e_s(t)) = (s (x) s) D(e_t), constants included, and map each
term v e_c (x) m' of the reduced coaction of m to a term v e_s(c) (x) m' of
the same coaction.  Then s sends the tensor (a_1, ..., a_i, m) to (s(a_1),
..., s(a_i), m) and commutes with d, so it maps cell (i, W) onto cell (i, sW)
by permuting its rows and columns: the two cells have the same dimension,
rank, d^2 outcome and Ext.  s permutes the weight equations, so it acts
linearly on the weights, w_s(a) = M w_a with the comodule weights fixed, and
sW is read off the layouts as s(w_a + W') = w_s(a) + s(W'), a the first block
of W, down to layer 0.  A top cell sR that follows a built top cell R is its
twin: it is recorded with R's rank and never built.  This holds for any
coalgebra, non-conilpotent and non-coassociative ones included, since d^2 on
cell sR is d^2 on cell R permuted.  Only top cells are skipped: every lower
cell is a copy and clearing source for the next layer.  The support bound is
s-invariant, because Ext^(imax-1) is.  ``diff(i, None)`` builds every cell.

A basis tensor is the tuple (a_1, ..., a_i, m) of positive-basis indices and
a comodule index (0 without coefficients).  The layouts order these tuples
as Matrix.kron does, so u (x) v has index idx(u) * dim(v-part) + idx(v).
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from itertools import islice
from math import lcm
from operator import add

from cobarlab.coalg import Coalgebra, GradedCoalgebra, flatten, validate_comodule
from cobarlab.exactlin import QQ, ColumnMatrix, Matrix, extend_to_basis
from cobarlab.exttable import ExtTable, graded_table, layouts


def _weights(comul, coaction):
    """Integer weights of the finest grading the reduced structure respects.

    Returns one weight tuple per positive basis index and one per comodule
    index: the coordinates are a rational basis of the solutions of the
    weight equations, each scaled to integers.
    """
    d = len(comul)
    eqs = [(t, i, j) for t, terms in enumerate(comul) for i, j, _ in terms]
    eqs += [(d + m, c, d + m2) for m, terms in enumerate(coaction) for c, m2, _ in terms]
    items = []
    for row, (t, i, j) in enumerate(eqs):
        items += [(row, t, 1), (row, i, -1), (row, j, -1)]
    system = Matrix.from_entries(QQ, len(eqs), d + len(coaction), items)
    coords = []
    for vec in system.kernel_basis().columns():
        scale = lcm(*(x.denominator for x in vec))
        coords.append([int(x * scale) for x in vec])
    weights = [tuple(v[k] for v in coords) for k in range(d + len(coaction))]
    return weights[:d], weights[d:]


_AUT_NODES = 1000  # search nodes; past them the sweep keeps the automorphisms found so far


def _automorphisms(comul, coaction):
    """The permutations s != id of the positive basis that preserve D and the coaction.

    s maps each term v e_i (x) e_j of D(e_t) to a term v e_s(i) (x) e_s(j)
    of D(e_s(t)), and each term v e_c (x) m' of the reduced coaction of m to
    a term v e_s(c) (x) m' of the same coaction.  Backtracking over the
    indices in order (McKay-Piperno, "Practical graph isomorphism, II",
    J. Symbolic Comput. 2014): s(t) ranges over the indices with t's
    invariants (its coefficients, its counts as a first and as a second
    factor, its coaction terms), and each term of D is checked once its
    three indices are assigned.  Every s found is checked again on every
    term before it is kept.  The search stops after about _AUT_NODES nodes.
    """
    d = len(comul)
    inv = [[sorted(v for _, _, v in row), 0, 0, []] for row in comul]
    checks = [[] for _ in comul]  # checks[t]: the terms whose largest index is t
    for t, row in enumerate(comul):
        for i, j, v in row:
            inv[i][1] += 1
            inv[j][2] += 1
            checks[max(t, i, j)].append((t, i, j, v))
    for m, row in enumerate(coaction):
        for c, m2, v in row:
            inv[c][3].append((m, m2, v))
    groups = {}
    keys = [(tuple(cs), left, right, tuple(sorted(co))) for cs, left, right, co in inv]
    for t, key in enumerate(keys):
        groups.setdefault(key, []).append(t)
    terms = [{(i, j): v for i, j, v in row} for row in comul]
    coacts = [{(c, m2): v for c, m2, v in row} for row in coaction]
    found, s, used, nodes, ident = [], [], set(), 0, list(range(d))
    stack = [iter(groups[keys[0]])] if d else []
    while stack and nodes < _AUT_NODES:
        t = len(s)
        for x in stack[-1]:
            if x in used:
                continue
            nodes += 1
            s.append(x)
            if all(terms[s[u]].get((s[i], s[j])) == v for u, i, j, v in checks[t]):
                break
            s.pop()
        else:  # no value left for t: back up
            stack.pop()
            if s:
                used.discard(s.pop())
            continue
        if t + 1 < d:
            used.add(x)
            stack.append(iter(groups[keys[t + 1]]))
            continue
        exact = all({(s[i], s[j]): v for i, j, v in row} == terms[s[u]] for u, row in enumerate(comul))
        if exact and s != ident and all({(s[c], m2): v for c, m2, v in row} == co for row, co in zip(coaction, coacts)):
            found.append(tuple(s))
        s.pop()
    return found


def _images(auts, wc, down, w):
    """The images sW under ``auts`` of cell W of ``down[0]``, read down the first blocks of the layouts ``down``."""
    first = []
    for layer in down:
        a, (_, w) = next(iter(layer[w][1].items()))
        first.append(a)
    return [tuple(map(sum, zip(w, *(wc[perm[a]] for a in first)))) for perm in auts]


class CobarComplex:
    """A reduced cobar complex through degree imax, split into weight cells.

    Tables read the dimensions and ranks of one sweep over the cells (see
    the module docstring); ``jmax`` is set for graded inputs only.
    """

    def __init__(self, base, imax, jmax=None, coefficients=None):
        c = flatten(base) if isinstance(base, GradedCoalgebra) else base
        self.base = base
        self.imax = imax
        self.jmax = jmax
        self.with_coefficients = coefficients is not None
        self.field = c.field
        self._comul = c.reduced_comul()
        if coefficients is None:
            self._coaction = [()]
        else:
            g = c.grouplike_index
            pos = {i: k for k, i in enumerate(c.positive_indices())}
            self._coaction = [tuple((pos[i], j, v) for i, j, v in row if i != g) for row in coefficients.coaction]
        scale = lcm(*(v.denominator for terms in self._comul + self._coaction for _, _, v in terms))
        self._int_constants = [
            [tuple((p, q, v.numerator * (scale // v.denominator)) for p, q, v in terms) for terms in table]
            for table in (self._comul, self._coaction)
        ]
        wc, wm = _weights(self._comul, self._coaction)
        if jmax is not None:
            wc = [(c.degrees[i],) + w for i, w in zip(c.positive_indices(), wc)]
            wm = [(0,) + w for w in wm]
        self._grading = (wc, wm)
        self._dims = None
        self._ranks = None
        self._whole = None

    def _cells(self, grading, tables, top, jmax=None, bound=None, twins=None):
        """Yield (i, w, dim, d) for every cell of layers 0..top (see the module docstring).

        The cells fill the layouts of ``exttable.layouts``, layer i once
        layer i + 1, its rows, is laid out; layer 0 holds the comodule
        indices as blocks of dimension one.  The rows of layers below the
        top share the layouts' ints; the top layer's cells are never kept,
        and their rows are keyed by plain ints.  ``bound``, a set of weights, is
        read at layer ``top``: a top cell outside it is yielded with d = None.

        ``twins``, a dict, turns on the orbit skip: the automorphisms s of
        ``tables`` are found once.  When top cell R is built, each image sR
        (see ``_images``) that is still to come in the layer is entered as
        twins[sR] = R, and is then yielded with d = None and never built.
        """
        wc, wm = grading
        f = self.field
        neg = f.p or 0  # -v is neg - v, reduced over GF(p)
        auts = () if twins is None else _automorphisms(*tables)
        base = {}
        for m, w in enumerate(wm):
            cell = base.setdefault(w, [0, {}])
            cell[1][m] = (cell[0], None)
            cell[0] += 1
        shapes = layouts(base, [(wa, 1) for wa in wc], top + 1, jmax)
        prev, uses = {}, {}
        for i, (lower, needed, ints) in enumerate(islice(shapes, 1, None)):
            layer, nxt = lower[-2:]
            later = {w: k for k, w in enumerate(layer)} if auts and i == top else {}
            cur = {}
            for w, (n, blocks) in layer.items():
                if i == top and (twins and w in twins or bound is not None and w not in bound):
                    d = cols = block = None  # a twin or outside the support bound: only n is read
                else:
                    for v in _images(auts, wc, lower[i:0:-1], w) if later else ():
                        if later.get(v, 0) > later[w]:  # a top cell still to come is a twin of this one
                            twins.setdefault(v, w)
                    cols = []
                    rows, target = nxt.get(w, (0, {}))
                    for a, (col, src) in blocks.items():
                        r = target.get(a, (0,))[0]  # no block a: the copied columns have no rows
                        if not i:
                            cols.append({})
                        elif i < top:
                            cols += [{ints[r + x]: neg - v for x, v in c.items()} for c in prev[src].cols]
                        else:  # the top layer's rows, layout layer top + 1, have no shared ints
                            cols += [{r + x: neg - v for x, v in c.items()} for c in prev[src].cols]
                        block = cols[col:]
                        for pp, q, v in tables[0][a] if i else tables[1][a]:
                            off, mid = target[pp]
                            r = off + layer[mid][1][q][0]
                            keys = ints[r : r + len(block)] if i < top else range(r, r + len(block))
                            if pp != a or not i:
                                for k, c in zip(keys, block):
                                    c[k] = v
                                continue
                            for k, c in zip(keys, block):  # a (x) q in the reduced comultiplication of a meets the copy
                                s = f.add(c.pop(k, 0), v)
                                if s:
                                    c[k] = s
                    d = ColumnMatrix(f, rows, cols)
                for _, src in blocks.values() if i else ():
                    uses[src] -= 1
                    if not uses[src]:
                        del prev[src]
                if w in needed:
                    cur[w] = d
                yield i, w, n, d
                del d, cols, block  # a top cell is not kept while the next one is built
            prev, uses = cur, needed

    def _sweep(self):
        """Dimensions and ranks of every cell through imax, checking d^2 = 0.

        Cells are built from ``_int_constants``, the structure constants times
        L, the lcm of their denominators.  Each term of d inserts one constant,
        so a cell is L * d: same rank, and L^2 * d^2 vanishes iff d^2 does.
        Before it ranks d_i on cell W, the sweep checks d_i d_(i-1) = 0 there
        against the pivot columns K of d_(i-1) on W alone, and then the pivot
        rows of d_(i-1) on W clear the columns of d_i (both exact, see the
        module docstring).  Both are kept for one layer, K as references to
        columns of d_(i-1), and the top layer's are never collected.

        When ``_bounded`` holds, the top layer is built only on the support
        bound: the weights W' + w_a over the cells W' of layer imax-1 with
        nonzero Ext and the positive indices a, collected as those cells are
        ranked.  A top cell outside it has Ext 0 (see the module docstring),
        so it is recorded with rank n - rank d_(imax-1) and never built.

        A top cell that ``_cells`` enters as a twin of a built top cell R,
        the image of R under a permutation automorphism, is recorded with R's
        rank and never built (see the module docstring).  Its dimension and
        the rank of d_(imax-1) on it must equal R's, or the sweep raises.
        """
        if self._ranks is not None:
            return
        self._dims, ranks = {}, {}
        layer, last, kept = 0, {}, {}
        wc = self._grading[0]
        bound = set() if self._bounded() else None
        twins = {}
        for i, w, n, d in self._cells(self._grading, self._int_constants, self.imax, self.jmax, bound, twins):
            if i > layer:
                layer, last, kept = i, kept, {}
            cleared, image = last.pop(w, ((), ()))
            self._dims[(i, w)] = n
            if d is None:  # a twin has the rank of its representative; outside the support bound, Ext is 0
                below = ranks.get((i - 1, w), 0)
                if w in twins:
                    r = twins[w]
                    if self._dims[(i, r)] != n or ranks.get((i - 1, r), 0) != below:
                        raise AssertionError("cobar cell (%d,%r) does not match its representative %r" % (i, w, r))
                    ranks[(i, w)] = ranks[(i, r)]
                else:
                    ranks[(i, w)] = n - below
                continue
            if not d.annihilates(image):
                raise AssertionError("cobar differential does not square to zero at cell (%d,%r)" % (i - 1, w))
            if i < self.imax:
                ranks[(i, w)], rows, cols = d.rank(cleared, pivots=True)
                kept[w] = rows, [d.cols[k] for k in cols]
                if bound is not None and i == self.imax - 1 and n - ranks[(i, w)] - ranks.get((i - 1, w), 0):
                    bound.update(tuple(map(add, wa, w)) for wa in wc)
            else:
                ranks[(i, w)] = d.rank(cleared)
            del d  # the next cell is built without this one held
        self._ranks = ranks

    def _bounded(self):
        """Whether the top layer may be built on the support bound alone.

        Two conditions, each read off the input.  imax >= 3, so that layer 2
        is built and its d^2 check certifies that D is coassociative, and
        d^2 = 0 holds on the cells left unbuilt.  And the term graph of D on
        the positive basis, t -> i and t -> j for each term e_i (x) e_j of
        D(e_t), has no cycle: then D is conilpotent, which the bound needs.
        """
        if self.imax < 3:
            return False
        graph = TopologicalSorter({t: {x for i, j, _ in terms for x in (i, j)} for t, terms in enumerate(self._comul)})
        try:
            graph.prepare()
        except CycleError:
            return False
        return True

    def cell_dim(self, i, j=None):
        """Dimension of term i, or of its internal degree j for graded input."""
        self._sweep()
        return sum(n for (ii, w), n in self._dims.items() if ii == i and (j is None or w[0] == j))

    def diff(self, i, j=None):
        """Matrix of d: term i -> term i+1, both in tensor index order, for i <= imax.

        This is the one cell of the zero grading; for a graded input it is
        the differential of the flattened coalgebra.  ``j`` must be None.
        One pass of ``_cells`` builds the terms up to i and keeps them as
        plain matrices; a later call for a higher term resumes it, and the
        pass is closed once the term at imax is built, so that it holds no
        second copy of that term.
        """
        if j is not None:
            raise ValueError("diff builds whole terms; internal degrees are split inside the sweep")
        if i > self.imax:
            raise ValueError("degree beyond the built window")
        if self._whole is None:
            zero = ([()] * len(self._comul), [()] * len(self._coaction))
            self._whole = [], self._cells(zero, (self._comul, self._coaction), self.imax)
        built, cells = self._whole
        if i >= len(built):
            built += (Matrix(d.field, d.nrows, d.ncols, d.entries) for _, _, _, d in islice(cells, i + 1 - len(built)))
            if len(built) > self.imax:
                cells.close()
        # the pass stops early only when there is no positive part
        return built[i] if 0 <= i < len(built) else Matrix.zeros(self.field, 0, 0)


def build_cobar(c, imax, jmax=None):
    """Build the reduced cobar complex of a coalgebra through degree imax.

    Finite input: jmax must be omitted.  Graded input: jmax defaults to the
    truncation degree and may not exceed it (entries above the truncation
    would depend on absent components).
    """
    if imax < 0:
        raise ValueError("imax must be >= 0")
    if isinstance(c, GradedCoalgebra):
        top = c.top_degree
        if jmax is None:
            jmax = top
        if jmax < 0:
            raise ValueError("jmax must be >= 0")
        if jmax > top:
            raise ValueError("jmax %d exceeds truncation degree %d" % (jmax, top))
    elif not isinstance(c, Coalgebra):
        raise TypeError("build_cobar expects a Coalgebra or GradedCoalgebra")
    elif jmax is not None:
        raise ValueError("jmax applies to graded coalgebras only")
    return CobarComplex(c, imax, jmax)


def cobar_with_coefficients(c, m, imax):
    """Reduced cobar complex of a comodule: M -> C_+ (x) M -> ...

    The extra final summand of the differential inserts the reduced coaction
    in the last slot with sign (-1)^(i+2) on an i-tensor term; H^0 is the
    socle of M.
    """
    if not isinstance(c, Coalgebra):
        raise TypeError("coefficient complexes are built over finite coalgebras")
    if m.base != c:
        raise ValueError("comodule is not over the given coalgebra")
    report = validate_comodule(m)
    if not report.ok:
        raise ValueError("coefficient comodule failed validation: %s" % report.reasons)
    return CobarComplex(c, imax, coefficients=m)


def ext_table(cx):
    """Ext dimensions of a built cobar complex.

    Finite complexes give {i: dim Ext^i}; graded ones give {(i, j): dim}.
    """
    cx._sweep()
    graded = cx.jmax is not None
    if graded:
        entries = {(i, j): 0 for i in range(cx.imax + 1) for j in range(cx.jmax + 1)}
    else:
        entries = dict.fromkeys(range(cx.imax + 1), 0)
    for (i, w), n in cx._dims.items():
        key = (i, w[0]) if graded else i
        entries[key] += n - cx._ranks[(i, w)] - cx._ranks.get((i - 1, w), 0)
    if not graded:
        return ExtTable("finite", entries, cx.imax)
    return graded_table(entries, cx.imax, cx.jmax, cx.base.top_degree)


# ---------------------------------------------------------------------------
# cohomology classes and the concatenation product (finite complexes)


class CobarClass:
    __slots__ = ("degree", "vector", "coords")

    def __init__(self, degree, vector, coords=()):
        self.degree = degree
        self.vector = vector
        self.coords = coords


def _require_plain_finite(cx):
    """Refuse graded and coefficient complexes; run the d^2 = 0 sweep."""
    if cx.jmax is not None or cx.with_coefficients:
        raise ValueError("cohomology classes are implemented for plain finite cobar complexes")
    cx._sweep()


def cohomology_basis(cx, i):
    """Deterministic representative cocycles spanning H^i."""
    _require_plain_finite(cx)
    if i > cx.imax:
        raise ValueError("degree beyond the built window")
    cache = cx.__dict__.setdefault("_cohomology_cache", {})
    if i in cache:
        return cache[i]
    ker = cx.diff(i, None).kernel_basis()
    image = cx.diff(i - 1, None) if i else Matrix.zeros(cx.field, ker.nrows, 0)
    vectors = ker.columns()
    reps = [CobarClass(i, vectors[k]) for k in extend_to_basis(image, ker)]
    cache[i] = reps
    return reps


def class_coordinates(cx, cls):
    """Coordinates of a cocycle in the chosen basis of H^degree."""
    _require_plain_finite(cx)
    i = cls.degree
    vec = cls.vector
    if len(vec) != cx.cell_dim(i, None):
        raise ValueError("vector length does not match the term dimension")
    if any(x != cx.field.zero for x in cx.diff(i, None).apply(vec)):
        raise ValueError("not a cocycle")
    reps = cohomology_basis(cx, i)
    blocks = []
    if reps:
        blocks.append(Matrix.from_columns(cx.field, [list(r.vector) for r in reps], cx.cell_dim(i, None)))
    if i > 0:
        blocks.append(cx.diff(i - 1, None))
    if not blocks:
        if any(x != cx.field.zero for x in vec):
            raise ValueError("nonzero cocycle in a zero cohomology group")
        return ()
    stacked = Matrix.hstack(blocks)
    sol = stacked.solve(tuple(vec))
    if sol is None:
        raise AssertionError("cocycle failed to reduce against representatives and coboundaries")
    return tuple(sol[: len(reps)])


def product_vector(cx, a, b):
    """Concatenation of cocycle vectors: index(u (x) v) = idx(u)*dim_v + idx(v)."""
    _require_plain_finite(cx)
    out = []
    for x in a.vector:
        for y in b.vector:
            out.append(cx.field.mul(x, y))
    return tuple(out)


def ext_product(cx, a, b):
    """Product of two cobar cohomology classes, reduced to canonical form.

    The differential is a derivation for concatenation, so the product of
    cocycles is a cocycle; the result carries its coordinates in the chosen
    basis of H^(deg a + deg b).
    """
    _require_plain_finite(cx)
    i = a.degree + b.degree
    if i > cx.imax:
        raise ValueError("product degree beyond the built window")
    vec = product_vector(cx, a, b)
    coords = class_coordinates(cx, CobarClass(i, vec))
    reps = cohomology_basis(cx, i)
    f = cx.field
    canon = [f.zero] * cx.cell_dim(i, None)
    for coeff, rep in zip(coords, reps):
        if coeff != f.zero:
            for k, x in enumerate(rep.vector):
                canon[k] = f.add(canon[k], f.mul(coeff, x))
    return CobarClass(i, tuple(canon), coords)


def ext_algebra_table(cx, maxdeg):
    """Multiplication table of the Ext algebra up to total degree maxdeg.

    Returns (dims, products) with products[(ia, ib)][k][l] the coordinate
    tuple of basis class k (degree ia) times basis class l (degree ib).
    """
    _require_plain_finite(cx)
    if maxdeg > cx.imax:
        raise ValueError("window too small for the requested table")
    reps = {i: cohomology_basis(cx, i) for i in range(maxdeg + 1)}
    dims = [len(reps[i]) for i in range(maxdeg + 1)]
    products = {}
    for ia in range(1, maxdeg):
        for ib in range(1, maxdeg - ia + 1):
            table = []
            for a in reps[ia]:
                row = []
                for b in reps[ib]:
                    row.append(ext_product(cx, a, b).coords)
                table.append(row)
            products[(ia, ib)] = table
    return dims, products
