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
term c (x) m' of the reduced coaction of m (``exttable.finest_grading``); a
term off that grading raises AssertionError.  Cell (i, W) is the
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
zero grading has one cell per degree, the whole term, which ``diff(i, None)``
returns.

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
A class of a plain finite complex is a dict {(a_1, ..., a_i): value}, and
the product of two classes concatenates their tensors, so it lands in one
cell if each factor does.  H^i is read off the cells too: d is
block-diagonal over them and a reduced echelon form is unique, so the
kernel columns of d_i outside the image of d_(i-1), taken cell by cell, are
those of the whole term, and sorted by last tensor they come in its order.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from itertools import islice, product
from math import lcm
from operator import add

from cobarlab.coalg import Coalgebra, GradedCoalgebra, _column_triples, flatten, validate_comodule
from cobarlab.exactlin import ColumnMatrix, Matrix, extend_to_basis
from cobarlab.exttable import finest_grading, layouts, table_from_ranks, window


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
            rows = _column_triples(coefficients.coaction, coefficients.dim)
            self._coaction = [tuple((pos[i], j, v) for i, j, v in row if i != g) for row in rows]
        scale = lcm(*(v.denominator for terms in self._comul + self._coaction for _, _, v in terms))
        self._int_constants = [
            [tuple((p, q, v.numerator * (scale // v.denominator)) for p, q, v in terms) for terms in table]
            for table in (self._comul, self._coaction)
        ]
        d = len(self._comul)
        eqs = [(t, i, j) for t, terms in enumerate(self._comul) for i, j, _ in terms]
        eqs += [(d + m, a, d + m2) for m, terms in enumerate(self._coaction) for a, m2, _ in terms]
        weights = finest_grading(eqs, d + len(self._coaction))
        if jmax is not None:
            degrees = [c.degrees[i] for i in c.positive_indices()] + [0] * len(self._coaction)
            weights = [(deg,) + w for deg, w in zip(degrees, weights)]
        if any(weights[t] != tuple(map(add, weights[i], weights[j])) for t, i, j in eqs):
            raise AssertionError("the reduced structure constants are not homogeneous in their detected grading")
        self._grading = weights[:d], weights[d:]
        self._dims = self._ranks = self._whole = self._classes = None  # built on first use

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

        Two kinds of top cell are never built (see the module docstring).
        When ``_bounded`` holds, a cell outside the support bound, collected
        as layer imax-1 is ranked, is recorded with rank n - rank d_(imax-1).
        A twin of a built top cell R is recorded with R's rank, once its
        dimension and the rank of d_(imax-1) on it are checked against R's.
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
        """Whether the top layer may be built on the support bound alone: imax >= 3 and an acyclic term graph of D."""
        if self.imax < 3:
            return False
        graph = TopologicalSorter({t: {x for i, j, _ in terms for x in (i, j)} for t, terms in enumerate(self._comul)})
        try:
            graph.prepare()
        except CycleError:
            return False
        return True

    def diff(self, i):
        """Matrix of d: term i -> term i+1, both in tensor index order, for i <= imax.

        This is the one cell of the zero grading; for a graded input it is
        the differential of the flattened coalgebra.  One pass of ``_cells``
        builds the terms up to i and keeps them as plain matrices; a later
        call for a higher term resumes it, and the pass is closed once the
        term at imax is built, so that it holds no second copy of that term.
        """
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

    jmax is checked, and defaulted on graded input, by ``exttable.window``.
    """
    if not isinstance(c, (Coalgebra, GradedCoalgebra)):
        raise TypeError("build_cobar expects a Coalgebra or GradedCoalgebra")
    return CobarComplex(c, imax, window(imax, jmax, c.top_degree if isinstance(c, GradedCoalgebra) else None))


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
    top = None if cx.jmax is None else cx.base.top_degree
    return table_from_ranks(cx._dims, cx._ranks, -1, cx.imax, cx.jmax, top)


# ---------------------------------------------------------------------------
# cohomology classes and the concatenation product (plain finite complexes)


class CobarClass:
    """A cochain of degree i; ``vector`` maps basis tensors (a_1, ..., a_i) to nonzero values."""

    __slots__ = ("degree", "vector", "coords")

    def __init__(self, degree, vector, coords=()):
        self.degree, self.vector, self.coords = degree, vector, coords


def _layer(cx, i):
    """Layer i of the weight-cell pass: ({W: d_i}, {tensor: (W, index)}, the basis of H^i, [(last tensor, W, column)]).

    The pass runs after the checked sweep, layer by layer, and is closed
    after layer imax; each cell's classes must number its Ext.
    """
    if cx.jmax is not None or cx.with_coefficients:
        raise ValueError("cohomology classes are implemented for plain finite cobar complexes")
    if not 0 <= i <= cx.imax:
        raise ValueError("degree beyond the built window")
    cx._sweep()
    if cx._classes is None:
        cx._classes = [], cx._cells(cx._grading, (cx._comul, cx._coaction), cx.imax)
    layers, cells = cx._classes
    (wc, (wm,)), f = cx._grading, cx.field
    while len(layers) <= i:
        k, names, found = len(layers), {}, []
        for t in product(range(len(wc)), repeat=k):  # lexicographic, so each cell's tensors come in order
            names.setdefault(tuple(map(sum, zip(wm, *(wc[a] for a in t)))), []).append(t)
        where = {t: (w, x) for w, cell in names.items() for x, t in enumerate(cell)}
        diffs = {w: d for _, w, _, d in islice(cells, len(names))}
        for w, d in diffs.items():
            ker = d.kernel_basis()
            cols = ker.column_dicts()
            picked = extend_to_basis((layers[-1][0] if k else {}).get(w, ColumnMatrix(f, d.ncols, [])), ker)
            if len(picked) != cx._dims[(k, w)] - cx._ranks.get((k, w), 0) - cx._ranks.get((k - 1, w), 0):
                raise AssertionError("cohomology basis of cobar cell (%d,%r) does not match its Ext" % (k, w))
            found += [(names[w][max(cols[j])], w, cols[j]) for j in picked]
        found.sort()  # by last tensor, which no two classes share
        reps = [CobarClass(k, {names[w][x]: v for x, v in sorted(col.items())}) for _, w, col in found]
        layers.append((diffs, where, reps, found))
        if len(layers) > cx.imax:
            cells.close()
    return layers[i]


def cohomology_basis(cx, i):
    """Deterministic representative cocycles spanning H^i."""
    return _layer(cx, i)[2]


def class_coordinates(cx, cls):
    """Coordinates of a cocycle in the chosen basis of H^degree, solved in each cell its vector meets.

    In a cell, the vector's part is solved against the cell's representatives
    and the image of d_(i-1) on it; its coordinates on the representatives
    are unique, since these are independent modulo that image.
    """
    i, f = cls.degree, cx.field
    diffs, where, reps, found = _layer(cx, i)
    below, parts = _layer(cx, i - 1)[0] if i else {}, {}
    for t, v in cls.vector.items():
        if t not in where:
            raise ValueError("%r is not a basis tensor of degree %d" % (t, i))
        if v:
            parts.setdefault(where[t][0], {})[where[t][1]] = v
    coords = [f.zero] * len(reps)
    for w, part in parts.items():
        d, mine = diffs[w], [pos for pos, (_, v, _) in enumerate(found) if v == w]
        if not d.annihilates([part]):
            raise ValueError("not a cocycle")
        span = ColumnMatrix(f, d.ncols, [found[pos][2] for pos in mine] + (below[w].cols if w in below else []))
        sol = span.solve_columns(ColumnMatrix(f, d.ncols, [part]))
        if sol is None:
            raise AssertionError("cocycle failed to reduce against representatives and coboundaries")
        for (r, _), v in sol.entries.items():
            if r < len(mine):
                coords[mine[r]] = v
    return tuple(coords)


def ext_product(cx, a, b):
    """Product of two cobar cohomology classes, reduced to canonical form.

    The differential is a derivation for concatenation, so the product of
    cocycles is a cocycle; the result carries its coordinates in the chosen
    basis of H^(deg a + deg b), and their combination of it as its vector.
    """
    i, f = a.degree + b.degree, cx.field
    _layer(cx, min(a.degree, b.degree))  # with i <= imax, checked below, both factors are in the window
    vec = {s + t: f.mul(x, y) for s, x in a.vector.items() for t, y in b.vector.items()}
    coords = class_coordinates(cx, CobarClass(i, vec))
    canon = {}
    for c, rep in zip(coords, cohomology_basis(cx, i)):
        for t, v in rep.vector.items() if c else ():
            canon[t] = f.add(canon.get(t, f.zero), f.mul(c, v))
    return CobarClass(i, {t: v for t, v in sorted(canon.items()) if v}, coords)


def ext_algebra_table(cx, maxdeg):
    """Multiplication table of the Ext algebra up to total degree maxdeg.

    Returns (dims, products) with products[(ia, ib)][k][l] the coordinate
    tuple of basis class k (degree ia) times basis class l (degree ib).
    """
    _layer(cx, maxdeg)
    reps = [cohomology_basis(cx, i) for i in range(maxdeg + 1)]
    products = {}
    for ia in range(1, maxdeg):
        for ib in range(1, maxdeg - ia + 1):
            products[(ia, ib)] = [[ext_product(cx, a, b).coords for b in reps[ib]] for a in reps[ia]]
    return [len(r) for r in reps], products
