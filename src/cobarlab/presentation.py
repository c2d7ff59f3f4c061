"""JSON presentations of coalgebras, algebras, and comodules.

A presentation file is one JSON object tagged "schema": "cobarlab/1" whose
"kind" selects the payload:

* "coalgebra": field, dim, grouplike, counit vector, comul as one triple list
  [i, j, v] per basis index, optional degrees metadata.
* "graded_coalgebra": field, dims, components as dense row-major matrices
  keyed "j,p,q" (shape dims[p]*dims[q] by dims[j]).
* "algebra": field, dim, unit vector, mult as the coordinate vector of
  e_a e_b indexed [a][b], optional augmentation vector, optional degrees
  metadata.
* "comodule": dim, coaction triple lists, and an inline "base" coalgebra.

Scalars are integers or strings "a/b"; fields are {"kind": "rationals"} or
{"kind": "prime", "p": p}.  Loading is strict: unknown keys, wrong shapes, or
unparsable scalars raise SchemaError naming the JSON path of the offender.
"""

from __future__ import annotations

import json

from .coalg import Coalgebra, Comodule, GradedCoalgebra
from .dualalg import Algebra
from .exactlin import Matrix, field_from_label

SCHEMA_TAG = "cobarlab/1"


class SchemaError(ValueError):
    """A presentation document that does not match the schema."""


def _fail(loc, msg):
    raise SchemaError("%s: %s" % (loc, msg))


def _expect_dict(doc, loc, allowed):
    if not isinstance(doc, dict):
        _fail(loc, "expected an object")
    for key in doc:
        if key not in allowed:
            _fail("%s.%s" % (loc, key), "unknown key")


def _expect_int(value, loc, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(loc, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(loc, "expected an integer >= %d" % minimum)
    return value


def _expect_list(value, loc, length=None):
    if not isinstance(value, list):
        _fail(loc, "expected a list")
    if length is not None and len(value) != length:
        _fail(loc, "expected %d entries, got %d" % (length, len(value)))
    return value


def _scalar(field, value, loc):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        _fail(loc, "scalars are integers or strings like \"a/b\"")
    try:
        return field.coerce(value)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(loc, "bad scalar %r (%s)" % (value, exc))


def _field(doc, loc):
    if "field" not in doc:
        _fail(loc + ".field", "missing")
    label = doc["field"]
    if not isinstance(label, dict):
        _fail(loc + ".field", "expected an object")
    try:
        return field_from_label(label)
    except ValueError as exc:
        _fail(loc + ".field", str(exc))


def _triples(field, rows, dim, index_bounds, loc):
    out = []
    for t, row in enumerate(_expect_list(rows, loc, length=dim)):
        here = "%s[%d]" % (loc, t)
        triples = []
        for k, item in enumerate(_expect_list(row, here)):
            cell = "%s[%d]" % (here, k)
            item = _expect_list(item, cell, length=3)
            i = _expect_int(item[0], cell + "[0]", minimum=0)
            j = _expect_int(item[1], cell + "[1]", minimum=0)
            if i >= index_bounds[0] or j >= index_bounds[1]:
                _fail(cell, "index out of range")
            triples.append((i, j, _scalar(field, item[2], cell + "[2]")))
        out.append(tuple(triples))
    return out


def _vector(field, values, dim, loc):
    return tuple(
        _scalar(field, v, "%s[%d]" % (loc, k))
        for k, v in enumerate(_expect_list(values, loc, length=dim))
    )


def _dense_matrix(field, rows, nrows, ncols, loc):
    data = []
    for r, row in enumerate(_expect_list(rows, loc, length=nrows)):
        data.append(list(_vector(field, row, ncols, "%s[%d]" % (loc, r))))
    return Matrix.from_rows(field, data, ncols)


def _parse_coalgebra(doc, loc):
    _expect_dict(
        doc, loc, {"schema", "kind", "field", "dim", "grouplike", "counit", "comul", "degrees"}
    )
    field = _field(doc, loc)
    for key in ("dim", "grouplike", "counit", "comul"):
        if key not in doc:
            _fail("%s.%s" % (loc, key), "missing")
    dim = _expect_int(doc["dim"], loc + ".dim", minimum=1)
    grouplike = _expect_int(doc["grouplike"], loc + ".grouplike", minimum=0)
    if grouplike >= dim:
        _fail(loc + ".grouplike", "index out of range")
    counit = _vector(field, doc["counit"], dim, loc + ".counit")
    comul = _triples(field, doc["comul"], dim, (dim, dim), loc + ".comul")
    try:
        return Coalgebra(field, dim, grouplike, counit, comul, _degrees(doc, dim, loc))
    except ValueError as exc:
        _fail(loc, str(exc))


def _degrees(doc, dim, loc):
    """The optional degree metadata: one nonnegative int per basis index, or None."""
    if "degrees" in doc:
        items = enumerate(_expect_list(doc["degrees"], loc + ".degrees", length=dim))
        return [_expect_int(d, "%s.degrees[%d]" % (loc, k), minimum=0) for k, d in items]


def _parse_graded_coalgebra(doc, loc):
    _expect_dict(doc, loc, {"schema", "kind", "field", "dims", "components"})
    field = _field(doc, loc)
    for key in ("dims", "components"):
        if key not in doc:
            _fail("%s.%s" % (loc, key), "missing")
    dims = [
        _expect_int(d, "%s.dims[%d]" % (loc, k), minimum=0)
        for k, d in enumerate(_expect_list(doc["dims"], loc + ".dims"))
    ]
    raw = doc["components"]
    if not isinstance(raw, dict):
        _fail(loc + ".components", "expected an object")
    comps = {}
    for key, rows in raw.items():
        here = "%s.components[%r]" % (loc, key)
        parts = key.split(",")
        if len(parts) != 3:
            _fail(here, "keys look like \"j,p,q\"")
        try:
            j, p, q = (int(s) for s in parts)
        except ValueError:
            _fail(here, "keys look like \"j,p,q\"")
        if not (0 <= p and 0 <= q and p + q == j < len(dims)):
            _fail(here, "component key out of range")
        comps[(j, p, q)] = _dense_matrix(field, rows, dims[p] * dims[q], dims[j], here)
    try:
        return GradedCoalgebra(field, dims, comps)
    except ValueError as exc:
        _fail(loc, str(exc))


def _parse_algebra(doc, loc):
    _expect_dict(doc, loc, {"schema", "kind", "field", "dim", "unit", "mult", "augmentation", "degrees"})
    field = _field(doc, loc)
    for key in ("dim", "unit", "mult"):
        if key not in doc:
            _fail("%s.%s" % (loc, key), "missing")
    dim = _expect_int(doc["dim"], loc + ".dim", minimum=1)
    unit = _vector(field, doc["unit"], dim, loc + ".unit")
    mult = []
    for a, row in enumerate(_expect_list(doc["mult"], loc + ".mult", length=dim)):
        here = "%s.mult[%d]" % (loc, a)
        mult.append(
            [
                _vector(field, prod, dim, "%s[%d]" % (here, b))
                for b, prod in enumerate(_expect_list(row, here, length=dim))
            ]
        )
    augmentation = None
    if "augmentation" in doc:
        augmentation = _vector(field, doc["augmentation"], dim, loc + ".augmentation")
    try:
        return Algebra(field, dim, unit, mult, augmentation, _degrees(doc, dim, loc))
    except ValueError as exc:
        _fail(loc, str(exc))


def _parse_comodule(doc, loc):
    _expect_dict(doc, loc, {"schema", "kind", "base", "dim", "coaction"})
    for key in ("base", "dim", "coaction"):
        if key not in doc:
            _fail("%s.%s" % (loc, key), "missing")
    base_doc = doc["base"]
    if not isinstance(base_doc, dict):
        _fail(loc + ".base", "expected an object")
    if base_doc.get("kind", "coalgebra") != "coalgebra":
        _fail(loc + ".base.kind", "comodule bases are finite coalgebras")
    base = _parse_coalgebra(base_doc, loc + ".base")
    dim = _expect_int(doc["dim"], loc + ".dim", minimum=0)
    coaction = _triples(
        base.field, doc["coaction"], dim, (base.dim, dim), loc + ".coaction"
    )
    try:
        return Comodule(base, dim, coaction)
    except ValueError as exc:
        _fail(loc, str(exc))


_PARSERS = {
    "coalgebra": _parse_coalgebra,
    "graded_coalgebra": _parse_graded_coalgebra,
    "algebra": _parse_algebra,
    "comodule": _parse_comodule,
}


def parse_presentation(doc):
    """Parse one decoded JSON document into the object it presents."""
    if not isinstance(doc, dict):
        _fail("$", "expected a JSON object")
    tag = doc.get("schema")
    if tag != SCHEMA_TAG:
        _fail("$.schema", "expected %r" % SCHEMA_TAG)
    kind = doc.get("kind")
    if kind not in _PARSERS:
        _fail("$.kind", "expected one of %s" % ", ".join(sorted(_PARSERS)))
    return _PARSERS[kind](doc, "$")


def loads_presentation(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("$", "invalid JSON (%s)" % exc)
    return parse_presentation(doc)


def load_presentation(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_presentation(text)


def presentation_of(obj):
    """The JSON document presenting ``obj``, inverse to parse_presentation."""
    if isinstance(obj, Coalgebra):
        fmt = obj.field.format
        doc = {
            "schema": SCHEMA_TAG,
            "kind": "coalgebra",
            "field": obj.field.label(),
            "dim": obj.dim,
            "grouplike": obj.grouplike_index,
            "counit": [fmt(v) for v in obj.counit],
            "comul": [[[i, j, fmt(v)] for i, j, v in row] for row in obj.comul],
        }
        if obj.degrees is not None:
            doc["degrees"] = list(obj.degrees)
        return doc
    if isinstance(obj, GradedCoalgebra):
        fmt = obj.field.format
        comps = {}
        for (j, p, q), m in sorted(obj.components.items()):
            comps["%d,%d,%d" % (j, p, q)] = [[fmt(v) for v in row] for row in m.to_rows()]
        return {
            "schema": SCHEMA_TAG,
            "kind": "graded_coalgebra",
            "field": obj.field.label(),
            "dims": list(obj.dims),
            "components": comps,
        }
    if isinstance(obj, Algebra):
        fmt = obj.field.format
        doc = {
            "schema": SCHEMA_TAG,
            "kind": "algebra",
            "field": obj.field.label(),
            "dim": obj.dim,
            "unit": [fmt(v) for v in obj.unit],
            "mult": [[[fmt(v) for v in prod] for prod in row] for row in obj.mult],
        }
        if obj.augmentation is not None:
            doc["augmentation"] = [fmt(v) for v in obj.augmentation]
        if obj.degrees is not None:
            doc["degrees"] = list(obj.degrees)
        return doc
    if isinstance(obj, Comodule):
        fmt = obj.base.field.format
        return {
            "schema": SCHEMA_TAG,
            "kind": "comodule",
            "base": presentation_of(obj.base),
            "dim": obj.dim,
            "coaction": [[[i, j, fmt(v)] for i, j, v in row] for row in obj.coaction],
        }
    raise TypeError("no presentation for %r" % type(obj).__name__)


def dumps_presentation(obj):
    return json.dumps(presentation_of(obj), indent=2, sort_keys=True) + "\n"
