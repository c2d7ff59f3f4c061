"""What the cobar and bar pipelines share: the Ext table record and the cell layout.

It lives apart from both, so that each pipeline loads only its own module.
"""

from collections import Counter
from operator import add


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


def graded_table(entries, imax, jmax, top):
    """The graded table of ``entries``, computed from components of degree <= ``top``, with its truncation note.

    Both pipelines build a graded table here, so they word the note alike.
    """
    note = "entries computed from components of degree <= %d; any truncation >= %d agrees on this window" % (top, jmax)
    return ExtTable("graded", entries, imax, jmax, note)


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
