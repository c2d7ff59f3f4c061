import json

from cobarlab import cli
from cobarlab.cli import main
from cobarlab.coalg import extension_comodule
from cobarlab.dualalg import dual_algebra
from cobarlab.exactlin import QQ
from cobarlab.presentation import dumps_presentation, presentation_of
from helpers_coalgebras import divided_line, dual_numbers_dual


def _entries(table_json):
    return {tuple(cell[:-1]): cell[-1] for cell in table_json["entries"]}


def _load_out(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "bundled:c3.json"]) == 0
    assert main(["validate", "bundled:broken_counit.json"]) == 1
    out = capsys.readouterr().out
    assert "counital: false" in out
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_validate_report_payload(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "bundled:c2.json", "--out", str(out)]) == 0
    rep = _load_out(out)
    assert rep["command"] == "validate"
    assert rep["result"]["ok"] is True
    assert set(rep["inputs"]) == {"bundled:c2.json"}
    digest = rep["inputs"]["bundled:c2.json"]
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


def test_ext_finite_dims(tmp_path):
    out = tmp_path / "ext.json"
    assert main(["ext", "bundled:c2.json", "--imax", "5", "--out", str(out)]) == 0
    table = _load_out(out)["result"]["table"]
    assert table["kind"] == "finite"
    assert _entries(table) == {(i,): 1 for i in range(6)}


def test_ext_graded_diagonal(tmp_path):
    out = tmp_path / "ext.json"
    code = main(["ext", "bundled:sym2_d4.json", "--imax", "3", "--jmax", "4", "--out", str(out)])
    assert code == 0
    table = _load_out(out)["result"]["table"]
    cells = _entries(table)
    assert cells[(0, 0)] == 1 and cells[(1, 1)] == 2 and cells[(2, 2)] == 1
    assert all(v == 0 for key, v in cells.items() if key[0] != key[1])
    assert cells[(3, 3)] == 0


def test_ext_opposite_symmetry(tmp_path):
    out = tmp_path / "ext.json"
    assert main(["ext", "bundled:c3.json", "--imax", "4", "--side", "op", "--out", str(out)]) == 0
    result = _load_out(out)["result"]
    assert result["symmetry"] is True
    assert result["table"] == result["opposite_table"]


def test_ext_algebra_side_matches_cobar(tmp_path):
    co = tmp_path / "co.json"
    alg = tmp_path / "alg.json"
    assert main(["ext", "bundled:sym2_d4.json", "--imax", "3", "--out", str(co)]) == 0
    assert main(["ext", "bundled:sym2_d4.json", "--imax", "3", "--side", "algebra", "--out", str(alg)]) == 0
    left = _load_out(co)["result"]["table"]
    right = _load_out(alg)["result"]["table"]
    assert _entries(left) == _entries(right)


def test_ext_on_algebra_presentation(tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(dumps_presentation(dual_algebra(dual_numbers_dual())))
    out = tmp_path / "out.json"
    assert main(["ext", str(path), "--imax", "4", "--side", "algebra", "--out", str(out)]) == 0
    table = _load_out(out)["result"]["table"]
    assert _entries(table) == {(i,): 1 for i in range(5)}
    # the cobar sides need a coalgebra presentation
    assert main(["ext", str(path), "--imax", "4"]) == 2
    assert main(["ext", str(path), "--imax", "4", "--side", "op"]) == 2


def test_ext_jmax_errors(capsys):
    assert main(["ext", "bundled:sym2_d4.json", "--imax", "3", "--jmax", "9"]) == 2
    assert "truncation degree 4" in capsys.readouterr().err
    assert main(["ext", "bundled:c2.json", "--imax", "3", "--jmax", "2"]) == 2


def test_ext_rejects_negative_bounds(capsys):
    refused = [
        (["bundled:c3.json", "--imax", "-1", "--side", "algebra"], "imax must be >= 0"),
        (["bundled:c3.json", "--imax", "-1"], "imax must be >= 0"),
        (["bundled:sym2_d4.json", "--imax", "2", "--jmax", "-1"], "jmax must be >= 0"),
        (["bundled:sym2_d4.json", "--imax", "2", "--jmax", "-1", "--side", "algebra"], "jmax must be >= 0"),
        (["bundled:sym2_d4.json", "--imax", "-1", "--side", "algebra"], "imax must be >= 0"),
    ]
    for argv, message in refused:
        assert main(["ext"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_ext_rejects_invalid_coalgebra_on_every_side(capsys):
    for side in ("co", "op", "algebra"):
        assert main(["ext", "bundled:broken_counit.json", "--imax", "2", "--side", side]) == 2
        captured = capsys.readouterr()
        assert "counital" in captured.err
        assert captured.out == ""


def test_reports_deterministic_modulo_wall_time(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["ext", "bundled:c3.json", "--imax", "4", "--out", str(path)]) == 0
    left = _load_out(a)
    right = _load_out(b)
    left.pop("wall_time_s")
    right.pop("wall_time_s")
    assert left == right


def test_compare_command(tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", "bundled:c3.json", "--n", "4", "--out", str(out)]) == 0
    result = _load_out(out)["result"]
    assert result["ok"] is True
    assert result["comodule_dims"] == [1, 1, 1, 1, 1]
    assert result["comodule_dims"] == result["module_dims"]
    assert "seconds" not in result
    assert main(["compare", "bundled:sym2_d4.json", "--n", "2"]) == 2


def test_compare_rejects_negative_degree(capsys):
    assert main(["compare", "bundled:c3.json", "--n", "-1"]) == 2
    assert "--n" in capsys.readouterr().err


def test_compare_with_comodule_files(tmp_path, capsys):
    c = divided_line()
    m = extension_comodule(c, (QQ.zero, QQ.one, QQ.zero))
    path = tmp_path / "m.json"
    path.write_text(dumps_presentation(m))
    assert main(["compare", "bundled:c3.json", "--left", str(path), "--right", "k", "--n", "3"]) == 0
    assert main(["compare", "bundled:c3.json", "--left", "regular", "--n", "2"]) == 0
    # a comodule over a different base is rejected before any computation
    other = tmp_path / "other.json"
    other.write_text(dumps_presentation(extension_comodule(dual_numbers_dual(), (QQ.zero, QQ.one))))
    assert main(["compare", "bundled:c3.json", "--left", str(other), "--n", "2"]) == 2
    assert "base differs" in capsys.readouterr().err


def test_resolve_command(tmp_path):
    out = tmp_path / "res.json"
    assert main(["resolve", "bundled:c3.json", "--length", "4", "--out", str(out)]) == 0
    result = _load_out(out)["result"]
    assert result["cogenerator_dims"] == [1, 1, 1, 1, 1]
    assert result["step_dims"] == [3, 3, 3, 3, 3]
    assert result["minimal"] is True and result["verified"] is True
    seeded = tmp_path / "seeded.json"
    assert main(["resolve", "bundled:c3.json", "--length", "4", "--seed", "7", "--out", str(seeded)]) == 0
    assert _load_out(seeded)["result"]["cogenerator_dims"] == [1, 1, 1, 1, 1]
    assert _load_out(seeded)["seed"] == 7


def test_resolve_flattened_graded(tmp_path):
    out = tmp_path / "res.json"
    code = main(["resolve", "bundled:sym2_d4.json", "--flatten", "--length", "2", "--out", str(out)])
    assert code == 0
    assert _load_out(out)["result"]["cogenerator_dims"] == [1, 2, 7]
    assert main(["resolve", "bundled:sym2_d4.json", "--length", "2"]) == 2


def test_demo_commands(tmp_path):
    non = tmp_path / "non.json"
    assert main(["demo", "nonrational", "--out", str(non)]) == 0
    rep = _load_out(non)
    assert rep["result"]["is_rational"] is False
    assert rep["result"]["module_axioms_verified"] is True
    assert rep["result"]["samples"] == 200
    assert rep["seed"] == 20260816
    contra = tmp_path / "contra.json"
    assert main(["demo", "contra", "--out", str(contra)]) == 0
    result = _load_out(contra)["result"]
    assert result["module_trivial"] and result["contra_nontrivial"]
    assert result["splitting_not_contra_linear"]


def test_comodule_input_to_ext_is_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dumps_presentation(extension_comodule(divided_line(), (QQ.zero, QQ.one, QQ.zero))))
    assert main(["ext", str(path), "--imax", "2"]) == 2
    # but validate accepts it
    assert main(["validate", str(path)]) == 0


def test_validate_comodule_verdict(tmp_path, capsys):
    # (0, 0, 1) is not primitive, so the coaction fails coassociativity
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_presentation(extension_comodule(divided_line(), (QQ.zero, QQ.zero, QQ.one))))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "comodule_valid: false" in out and "FAILED" in out
    report = tmp_path / "bad_report.json"
    assert main(["validate", str(bad), "--out", str(report)]) == 1
    result = _load_out(report)["result"]
    assert result["ok"] is False and result["flags"]["comodule_valid"] is False
    good = tmp_path / "good.json"
    good.write_text(dumps_presentation(extension_comodule(divided_line(), (QQ.zero, QQ.one, QQ.zero))))
    good_report = tmp_path / "good_report.json"
    assert main(["validate", str(good), "--out", str(good_report)]) == 0
    assert _load_out(good_report)["result"]["ok"] is True


def test_bundled_name_with_path_separator_is_rejected():
    assert main(["validate", "bundled:../c3.json"]) == 2
    assert main(["validate", "bundled:nope.json"]) == 2


def test_internal_error_exits_3_not_a_verdict(monkeypatch, capsys, tmp_path):
    def failing_sweep(cx):
        raise AssertionError("cobar differential does not square to zero at cell (0,())")

    monkeypatch.setattr(cli, "ext_table", failing_sweep)
    out = tmp_path / "report.json"
    assert main(["ext", "bundled:c3.json", "--imax", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "internal error: AssertionError: cobar differential does not square to zero" in captured.err
    assert captured.out == ""
    message = "cobar differential does not square to zero at cell (0,())"
    expected = {"command": "ext", "error": {"message": message, "type": "AssertionError"}, "schema": "cobarlab/1"}
    assert _load_out(out) == expected
    assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    # an unwritable --out still exits 3, not with an escaping exception
    assert main(["ext", "bundled:c3.json", "--imax", "2", "--out", str(tmp_path / "missing" / "r.json")]) == 3
