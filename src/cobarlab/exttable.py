"""What the cobar and bar pipelines share: the Ext table record, its assembly, the grading solver and the cell layout.

It lives apart from both, so that each pipeline loads only its own module.
"""

from collections import Counter
from math import lcm
from operator import add

from cobarlab.exactlin import QQ, Matrix


class ExtTable:
    """Ext dimensions: keyed by i for finite inputs, by (i, j) for graded."""

    __slots__ = ("kind", "entries", "imax", "jmax", "truncation_note")

    def __init__(self, kind, entries, imax, jmax=None, truncation_note=None):
        self.kind = kind  # "finite" | "graded"
        self.entries = entries
        self.imax = imax
        self.jmax = jmax
        self.truncation_note = truncation_note

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


def table_from_ranks(sizes, ranks, step, imax, jmax=None, top=None):
    """The Ext table of a complex split into cells, with the cells of terms 0..``imax`` summed.

    ``sizes`` maps each cell (i, W) to its dimension and ``ranks`` a cell to
    the rank of the map that leaves it; the map that enters cell (i, W)
    leaves cell (i + ``step``, W), and a missing rank is 0.  So Ext in the
    cell is its size less both ranks.  Finite tables sum by i; with ``jmax``
    set, by (i, W[0]), and the note says they were computed from components
    of degree <= ``top``, so that both pipelines word it alike.
    """
    if jmax is None:
        entries = dict.fromkeys(range(imax + 1), 0)
    else:
        entries = {(i, j): 0 for i in range(imax + 1) for j in range(jmax + 1)}
    for (i, w), n in sizes.items():
        if i <= imax:
            entries[i if jmax is None else (i, w[0])] += n - ranks.get((i, w), 0) - ranks.get((i + step, w), 0)
    if jmax is None:
        return ExtTable("finite", entries, imax)
    note = "entries computed from components of degree <= %d; any truncation >= %d agrees on this window" % (top, jmax)
    return ExtTable("graded", entries, imax, jmax, note)


def window(imax, jmax, top):
    """The checked jmax of a table through term ``imax``: None on finite input, whose ``top`` is None.

    On graded input jmax defaults to the truncation degree ``top`` and may
    not exceed it, since entries above it would depend on absent components.
    """
    if imax < 0:
        raise ValueError("imax must be >= 0")
    if top is None:
        if jmax is not None:
            raise ValueError("jmax applies to graded inputs only")
        return None
    jmax = top if jmax is None else jmax
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    if jmax > top:
        raise ValueError("jmax %d exceeds truncation degree %d" % (jmax, top))
    return jmax


def finest_grading(equations, n):
    """Integer weights of the finest additive grading of n unknowns that ``equations`` allow, one tuple per unknown.

    Each equation (t, i, j) asks w_t = w_i + w_j.  The coordinates are a
    rational basis of the solutions, each scaled to integers; where 0 is the
    only solution every weight is ().  Each pipeline passes the equations of
    its own structure constants and checks its own homogeneity.
    """
    items = []
    for row, (t, i, j) in enumerate(equations):
        items += [(row, t, 1), (row, i, -1), (row, j, -1)]
    coords = []
    for vec in Matrix.from_entries(QQ, len(equations), n, items).kernel_basis().columns():
        scale = lcm(*(x.denominator for x in vec))
        coords.append([int(x * scale) for x in vec])
    return [tuple(v[k] for v in coords) for k in range(n)]


def layouts(base, factors, last, jmax=None):
    """Yield (lower, uses, ints) once per layer i = 0 .. ``last`` of a tensor complex split into weight cells.

    ``lower`` is one list, grown to the layouts of layers 0..i; layer 0 is
    ``base``.  Cell (i, W) is the blocks a (x) cell (i-1, W - w_a) over the
    entries (w_a, k_a) of ``factors``, a weight tuple and a multiplicity, in
    order; block a indexes (x, u), x < k_a, at offset + x * dim cell
    (i-1, W - w_a) + u, so a layer of one cell is in Kronecker order.  A
    layout maps each W to [dim, {a: (offset, W - w_a)}], never a tensor.  No
    block has k_a = 0 and no W a first coordinate above ``jmax``.  ``uses``
    counts the blocks of layer i that read each cell below.  ``ints`` holds
    one int object per index up to the largest dimension of layers
    0..min(i, last - 1), for every key of a kept cell to share.  The cells
    of layer ``last`` are never kept: it gets no uses and no ints, and its
    keys are fresh ints.
    """
    lower, ints = [], []
    for i in range(last + 1):
        layer = {} if i else base
        for a, (wa, k) in enumerate(factors if i else ()):
            for w, (n, _) in lower[-1].items() if k else ():
                key = tuple(map(add, wa, w))
                if jmax is None or key[0] <= jmax:
                    cell = layer.get(key)
                    if cell is None:
                        cell = layer[key] = [0, {}]
                    cell[1][a] = (cell[0], w)
                    cell[0] += k * n
        lower.append(layer)
        uses = Counter()
        if i < last:
            ints += range(len(ints), max([n for n, _ in layer.values()], default=0))
            uses.update(src for _, blocks in layer.values() for _, src in blocks.values())
        yield lower, uses, ints
