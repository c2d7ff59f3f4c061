"""Reduced cobar complexes and Ext tables of conilpotent coalgebras.

For a finite coalgebra the complex is k -> C_+ -> C_+ (x) C_+ -> ..., or
M -> C_+ (x) M -> ... with coefficients in a comodule M.  The differential is
the alternating sum of reduced-comultiplication insertions, slot t of an
i-tensor carrying sign (-1)^(t+1); with coefficients the reduced coaction is
inserted in the last slot with sign (-1)^(i+2).  H^i is Ext^i_C(k, M).

Every complex is split into cells by the finest additive weight grading of
its structure constants (Adams, "On the cobar construction", PNAS 1956): the
rational solutions of w_t = w_i + w_j, one equation per nonzero term
e_i (x) e_j of the reduced comultiplication of e_t, and w_m = w_c + w_m' per
nonzero term c (x) m' of the reduced coaction of m.  Cell (i, W) is the
lexicographically sorted list of i-tensors of total weight W.  The
differential preserves W, so one sweep builds each cell differential by index
arithmetic, checks d^2 = 0 on every cell pair and ranks it, keeping only the
tensors and differentials that the next check needs.  A graded coalgebra is
flattened with its internal degree as the first weight coordinate, which
gives the (i, j) tables.  The zero grading has one cell per degree: the whole
term, which the cohomology and product functions read through
``diff(i, None)``.

A basis tensor is the tuple (a_1, ..., a_i, m) of positive-basis indices and
a comodule index (0 without coefficients).  Lexicographic order on these
tuples is the index order of Matrix.kron, first factor most significant, so
the index of a concatenation u (x) v is idx(u) * dim(v-part) + idx(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import lcm
from operator import add

from cobarlab.coalg import Coalgebra, GradedCoalgebra, flatten
from cobarlab.exactlin import QQ, Matrix, extend_to_basis


@dataclass(frozen=True)
class ExtTable:
    """Ext dimensions: keyed by i for finite inputs, by (i, j) for graded."""

    kind: str  # "finite" | "graded"
    entries: dict
    imax: int
    jmax: int | None = None
    truncation_note: str | None = None

    def __eq__(self, other):
        if not isinstance(other, ExtTable):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.imax == other.imax
            and self.jmax == other.jmax
            and self.entries == other.entries
        )

    def dims(self):
        """Finite: the list [dim Ext^0, ..., dim Ext^imax]."""
        if self.kind != "finite":
            raise ValueError("dims() is for finite tables; use entries for bigraded ones")
        return [self.entries[i] for i in range(self.imax + 1)]

    def to_json(self):
        if self.kind == "finite":
            cells = [[i, self.entries[i]] for i in range(self.imax + 1)]
        else:
            cells = [[i, j, v] for (i, j), v in sorted(self.entries.items())]
        out = {"kind": self.kind, "imax": self.imax, "entries": cells}
        if self.jmax is not None:
            out["jmax"] = self.jmax
        if self.truncation_note:
            out["truncation_note"] = self.truncation_note
        return out


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
    for vec in system.kernel_basis().vectors:
        scale = lcm(*(x.denominator for x in vec))
        coords.append([int(x * scale) for x in vec])
    weights = [tuple(v[k] for v in coords) for k in range(d + len(coaction))]
    return weights[:d], weights[d:]


def _layers(grading, top, jmax=None):
    """Layers 0..top, each a dict weight -> cell, dropping degrees above jmax.

    Prepending each positive index to the cells of the previous layer,
    index by index, keeps every cell lexicographically sorted.
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
        self._int_constants = self._signed(
            [tuple((p, q, v.numerator * (scale // v.denominator)) for p, q, v in terms) for terms in table]
            for table in (self._comul, self._coaction)
        )
        wc, wm = _weights(self._comul, self._coaction)
        if jmax is not None:
            wc = [(c.degrees[i],) + w for i, w in zip(c.positive_indices(), wc)]
            wm = [(0,) + w for w in wm]
        self._grading = (wc, wm)
        self._dims = None
        self._ranks = None

    def _signed(self, tables):
        """Each constant table paired with its negation, indexed by slot parity."""
        neg = self.field.neg
        return [(t, [tuple((p, q, neg(v)) for p, q, v in terms) for terms in t]) for t in tables]

    def _cell_diff(self, cell, rows, comul, coaction):
        """Matrix of d on one cell, one column per tensor of ``cell``.

        ``rows`` maps target tensors to row indices; a target it lacks takes
        the next free index, which is how the unlisted top layer is indexed.
        ``comul`` and ``coaction`` are the constants inserted by each term,
        as pairs from ``_signed``: slot s inserts ``table[s % 2]``.
        """
        f = self.field
        entries = {}
        for col, tensor in enumerate(cell):
            last = len(tensor) - 1
            for s, a in enumerate(tensor):
                head = tensor[:s]
                tail = tensor[s + 1 :]
                for p, q, v in (coaction if s == last else comul)[s % 2][a]:
                    key = (rows.setdefault(head + (p, q) + tail, len(rows)), col)
                    if key in entries:
                        v = f.add(entries[key], v)
                        if not v:
                            del entries[key]
                            continue
                    entries[key] = v
        return Matrix(f, len(rows), len(cell), entries)

    def _sweep(self):
        """Dimensions and ranks of every cell through imax, checking d^2 = 0.

        Cells are built from ``_int_constants``, the structure constants times
        L, the lcm of their denominators.  Each term of d inserts one constant,
        so a cell is L * d: same rank, and L^2 * d^2 vanishes iff d^2 does.
        """
        if self._ranks is not None:
            return
        dims = {}
        ranks = {}
        layers = _layers(self._grading, self.imax, self.jmax)
        layer = next(layers)
        prev = {}
        for i in range(self.imax + 1):
            nxt = next(layers, {})
            cur = {}
            for w, cell in layer.items():
                d = self._cell_diff(cell, {t: r for r, t in enumerate(nxt.get(w, ()))}, *self._int_constants)
                before = prev.pop(w, None)
                if before is not None and not (d @ before).is_zero():
                    raise AssertionError("cobar differential does not square to zero at cell (%d,%r)" % (i - 1, w))
                dims[(i, w)] = len(cell)
                ranks[(i, w)] = d.rank()
                if i < self.imax:
                    cur[w] = d
            prev = cur
            layer = nxt
        self._dims = dims
        self._ranks = ranks

    def cell_dim(self, i, j=None):
        """Dimension of term i, or of its internal degree j for graded input."""
        self._sweep()
        return sum(n for (ii, w), n in self._dims.items() if ii == i and (j is None or w[0] == j))

    def diff(self, i, j=None):
        """Matrix of d: term i -> term i+1, both in tensor index order.

        This is the one cell of the zero grading; for a graded input it is
        the differential of the flattened coalgebra.  ``j`` must be None.
        """
        if j is not None:
            raise ValueError("diff builds whole terms; internal degrees are split inside the sweep")
        zero = ([()] * len(self._comul), [()] * len(self._coaction))
        src = dst = None
        for layer in _layers(zero, i + 1):
            src, dst = dst, layer.get((), [])
        return self._cell_diff(src, {t: r for r, t in enumerate(dst)}, *self._signed((self._comul, self._coaction)))


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
    top = cx.base.top_degree
    note = "entries computed from components of degree <= %d; any truncation >= %d agrees on this window" % (
        top,
        cx.jmax,
    )
    return ExtTable("graded", entries, cx.imax, cx.jmax, note)


# ---------------------------------------------------------------------------
# cohomology classes and the concatenation product (finite complexes)


@dataclass(frozen=True)
class CobarClass:
    degree: int
    vector: tuple
    coords: tuple = dc_field(default=())


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
    f = cx.field
    ker = cx.diff(i, None).kernel_basis()
    if i == 0:
        image_cols = []
    else:
        image_cols = cx.diff(i - 1, None).columns()
    chosen = extend_to_basis(f, cx.cell_dim(i, None), image_cols, list(ker.vectors))
    reps = [CobarClass(i, ker.vectors[k]) for k in chosen]
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
