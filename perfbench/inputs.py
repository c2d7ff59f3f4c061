"""Seeded benchmark inputs, built from cobarlab's public constructors.

The workload seed drives a degree-preserving relabelling of each degree's
basis.  It keeps every Ext dimension and the sparsity of every differential,
and changes pivot tie-breaking.  Seed 0 is the identity relabelling, so at
seed 0 ``sym(4, "QQ")`` is exactly ``bundled:sym2_d4.json``.
"""

import random
from importlib import resources

from cobarlab.coalg import GradedCoalgebra, symmetric_coalgebra
from cobarlab.exactlin import GF, QQ, Matrix
from cobarlab.presentation import dumps_presentation, loads_presentation

FIELDS = {"QQ": QQ, "GFP": GF(2147483647)}


def relabel(g, perms):
    """The graded coalgebra whose degree-j basis vector k is the old perms[j][k]."""
    where = [{old: new for new, old in enumerate(perm)} for perm in perms]
    comps = {}
    for (j, p, q), m in g.components.items():
        dq = g.dims[q]
        items = []
        for (row, col), v in m.entries.items():
            a, b = divmod(row, dq)
            items.append((where[p][a] * dq + where[q][b], where[j][col], v))
        comps[(j, p, q)] = Matrix.from_entries(g.field, m.nrows, m.ncols, items)
    return GradedCoalgebra(g.field, g.dims, comps)


class Inputs:
    """The presentations of one workload seed, as JSON text."""

    def __init__(self, seed):
        self.seed = seed

    def sym(self, top, field, relabelled=True):
        """Sym(2) truncated at ``top`` over FIELDS[field], relabelled by the seed."""
        g = symmetric_coalgebra(2, top, FIELDS[field])
        # one stream per input, so adding an input never changes the others
        rng = random.Random("%d:sym%d:%s" % (self.seed, top, field)) if self.seed and relabelled else None
        perms = []
        for d in g.dims:
            perm = list(range(d))
            if rng is not None:
                rng.shuffle(perm)
            perms.append(perm)
        return dumps_presentation(relabel(g, perms))

    @staticmethod
    def bundled(name):
        """A bundled input, written out as a generated file; no seed dependence."""
        text = resources.files("cobarlab").joinpath("data", name).read_text(encoding="utf-8")
        return dumps_presentation(loads_presentation(text))
