"""The Ext table record that the cobar and bar pipelines both return.

It lives apart from both, so that each pipeline loads only its own module.
"""


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
