import json
from fractions import Fraction
from importlib import resources

import pytest

from cobarlab.coalg import (
    Coalgebra,
    flatten,
    symmetric_coalgebra,
    tensor_coalgebra,
    trivial_comodule,
    validate,
)
from cobarlab.dualalg import dual_algebra, opposite_algebra
from cobarlab.exactlin import GF, QQ
from cobarlab.presentation import (
    SchemaError,
    dumps_presentation,
    loads_presentation,
    parse_presentation,
    presentation_of,
)
from helpers_coalgebras import divided_line, dual_numbers_dual, non_associative_algebra, shifted_by_unit


def _bundled(name):
    return resources.files("cobarlab").joinpath("data", name).read_text(encoding="utf-8")


def test_finite_coalgebra_round_trip():
    c = flatten(tensor_coalgebra(2, 2, QQ))
    doc = presentation_of(c)
    again = parse_presentation(doc)
    assert again == c
    assert again.degrees == c.degrees


def test_graded_coalgebra_round_trip():
    g = symmetric_coalgebra(2, 3, QQ)
    assert parse_presentation(presentation_of(g)) == g


@pytest.mark.parametrize(
    "make",
    [
        lambda: dual_algebra(divided_line()),
        lambda: opposite_algebra(dual_algebra(flatten(tensor_coalgebra(2, 2, QQ)))),
        lambda: shifted_by_unit(dual_algebra(flatten(tensor_coalgebra(2, 2, QQ))), 3),
        non_associative_algebra,
        lambda: dual_algebra(flatten(symmetric_coalgebra(2, 3, GF(7)))),
        lambda: dual_algebra(flatten(tensor_coalgebra(2, 2, GF(2**31 - 1)))),
    ],
    ids=["dual", "opposite", "shifted", "nonassoc", "dual-GF7", "dual-GFbig"],
)
def test_algebra_round_trip(make):
    a = make()
    assert parse_presentation(presentation_of(a)) == a


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_algebra_degrees_dump_then_parse(field):
    a = dual_algebra(flatten(symmetric_coalgebra(2, 3, field)))
    assert a.degrees == (0, 1, 1, 2, 2, 2, 3, 3, 3, 3)
    text = dumps_presentation(a)
    assert json.loads(text)["degrees"] == list(a.degrees)
    again = loads_presentation(text)
    assert again == a
    assert again.degrees == a.degrees
    assert dumps_presentation(again) == text
    # no metadata stays no metadata
    plain = dual_algebra(divided_line(field))
    assert "degrees" not in presentation_of(plain)
    assert loads_presentation(dumps_presentation(plain)).degrees is None


@pytest.mark.parametrize(
    "degrees, fragment",
    [([0, 1], "$.degrees"), ([0, 1, -1], "$.degrees[2]"), ([0, True, 2], "$.degrees[1]"), (3, "$.degrees")],
)
def test_algebra_degree_errors_name_their_location(degrees, fragment):
    doc = presentation_of(dual_algebra(divided_line()))
    doc["degrees"] = degrees
    with pytest.raises(SchemaError) as err:
        parse_presentation(doc)
    assert fragment in str(err.value)


def test_comodule_round_trip():
    m = trivial_comodule(divided_line())
    again = parse_presentation(presentation_of(m))
    assert again.base == m.base
    assert again.dim == m.dim
    assert again.coaction == m.coaction


def test_rational_scalars_survive_the_text_form():
    half = Fraction(1, 2)
    c = Coalgebra(QQ, 2, 0, (QQ.one, QQ.zero), [
        [(0, 0, QQ.one)],
        [(0, 1, half), (1, 0, half), (1, 1, QQ.zero)],
    ])
    text = dumps_presentation(c)
    assert '"1/2"' in text
    assert loads_presentation(text) == c


def test_prime_field_round_trip():
    c = Coalgebra(GF(5), 2, 0, (1, 0), [
        [(0, 0, 1)],
        [(0, 1, 1), (1, 0, 1)],
    ])
    again = loads_presentation(dumps_presentation(c))
    assert again == c
    assert again.field == GF(5)


def test_bundled_files_match_their_constructions():
    assert loads_presentation(_bundled("c2.json")) == dual_numbers_dual()
    assert loads_presentation(_bundled("c3.json")) == divided_line()
    assert loads_presentation(_bundled("sym2_d4.json")) == symmetric_coalgebra(2, 4, QQ)
    broken = loads_presentation(_bundled("broken_counit.json"))
    report = validate(broken)
    assert report.flags["counital"] is False


def _doc(**overrides):
    base = {
        "schema": "cobarlab/1",
        "kind": "coalgebra",
        "field": {"kind": "rationals"},
        "dim": 2,
        "grouplike": 0,
        "counit": [1, 0],
        "comul": [[[0, 0, 1]], [[0, 1, 1], [1, 0, 1]]],
    }
    base.update(overrides)
    return base


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"kind": "coalgebra"}, "$.schema"),
        (_doc(schema="cobarlab/2"), "$.schema"),
        (_doc(kind="bialgebra"), "$.kind"),
        (_doc(unexpected=1), "$.unexpected"),
        (_doc(field={"kind": "reals"}), "$.field"),
        (_doc(counit=[1]), "$.counit"),
        (_doc(counit=[1, True]), "$.counit[1]"),
        (_doc(counit=[1, "1/0"]), "$.counit[1]"),
        (_doc(comul=[[[0, 0, 1]], [[0, 2, 1]]]), "$.comul[1][0]"),
        (_doc(comul=[[[0, 0, 1]], [[0, 1]]]), "$.comul[1][0]"),
        (_doc(grouplike=5), "$.grouplike"),
        (_doc(dim=0), "$.dim"),
        (_doc(degrees=[0]), "$.degrees"),
    ],
)
def test_schema_errors_name_their_location(doc, fragment):
    with pytest.raises(SchemaError) as err:
        parse_presentation(doc)
    assert fragment in str(err.value)


def test_graded_schema_errors():
    good = presentation_of(symmetric_coalgebra(2, 2, QQ))
    bad = json.loads(json.dumps(good))
    bad["components"]["2,1"] = bad["components"].pop("2,1,1")
    with pytest.raises(SchemaError) as err:
        parse_presentation(bad)
    assert "j,p,q" in str(err.value)
    missing = json.loads(json.dumps(good))
    del missing["components"]["2,1,1"]
    with pytest.raises(SchemaError):
        parse_presentation(missing)


def test_invalid_json_reports_at_the_root():
    with pytest.raises(SchemaError) as err:
        loads_presentation("")
    assert str(err.value).startswith("$:")
    with pytest.raises(SchemaError):
        loads_presentation("[1, 2]")


def test_comodule_base_must_be_finite():
    doc = {
        "schema": "cobarlab/1",
        "kind": "comodule",
        "base": presentation_of(symmetric_coalgebra(2, 2, QQ)),
        "dim": 1,
        "coaction": [[[0, 0, 1]]],
    }
    with pytest.raises(SchemaError) as err:
        parse_presentation(doc)
    assert "$.base" in str(err.value)
