import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import cobarlab
from cobarlab.cli import main
from cobarlab.coalg import extension_comodule
from cobarlab.dualalg import dual_algebra
from cobarlab.exactlin import QQ
from cobarlab.presentation import dumps_presentation, presentation_of
from helpers_coalgebras import divided_line, dual_numbers_dual, non_associative_algebra


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


def test_a_document_missing_a_required_key_exits_2_naming_its_path(tmp_path, capsys):
    # the field is malformed too, but the missing key is named first
    doc = presentation_of(divided_line())
    del doc["comul"]
    doc["field"] = "QQ"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["validate", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s: $.comul: missing\n" % path
    assert not out.exists()


def test_validate_report_payload(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "bundled:c2.json", "--out", str(out)]) == 0
    rep = _load_out(out)
    assert rep["command"] == "validate"
    assert rep["result"]["ok"] is True
    assert set(rep["inputs"]) == {"bundled:c2.json"}
    digest = rep["inputs"]["bundled:c2.json"]
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


def _recorded_digest(tmp_path, path):
    out = tmp_path / "digest.json"
    assert main(["validate", str(path), "--out", str(out)]) == 0
    return _load_out(out)["inputs"][str(path)]


def _bundled_bytes(name):
    with open(os.path.join(os.path.dirname(cobarlab.__file__), "data", name), "rb") as handle:
        return handle.read()


def test_inputs_are_recorded_by_the_sha256_of_their_bytes(tmp_path):
    lf = _bundled_bytes("c3.json")
    doc = json.loads(lf)
    doc["counit"][0] = "\u0661"  # ARABIC-INDIC DIGIT ONE: a rational scalar written in non-ASCII
    cases = {
        "lf.json": lf,
        "crlf.json": lf.replace(b"\n", b"\r\n"),
        "non_ascii.json": json.dumps(doc, ensure_ascii=False).encode("utf-8"),
    }
    assert b"\r\n" in cases["crlf.json"] and max(cases["non_ascii.json"]) > 127
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert _recorded_digest(tmp_path, path) == "sha256:" + hashlib.sha256(data).hexdigest()
    bundled = _bundled_bytes("c2.json")
    assert _recorded_digest(tmp_path, "bundled:c2.json") == "sha256:" + hashlib.sha256(bundled).hexdigest()


# Blocks both builtin SHA-256 modules before cobarlab.cli is imported, so the
# digest comes from hashlib, and prints the digest that validate records.
_FALLBACK_PROBE = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from cobarlab import cli
assert cli.sha256 is hashlib.sha256
assert cli.main(["validate", sys.argv[1], "--out", sys.argv[2]]) == 0
with open(sys.argv[2], encoding="utf-8") as handle:
    print(json.load(handle)["inputs"][sys.argv[1]])
"""


def test_digest_falls_back_to_hashlib_without_a_builtin_sha256(tmp_path):
    path = tmp_path / "crlf.json"
    path.write_bytes(_bundled_bytes("c2.json").replace(b"\n", b"\r\n"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cobarlab.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _FALLBACK_PROBE, str(path), str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == _recorded_digest(tmp_path, path)


def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff" + _bundled_bytes("c3.json"))
    for argv in (["validate", str(bad)], ["compare", "bundled:c3.json", "--left", str(bad)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s is not UTF-8 text (" % bad)
        assert "\n" not in captured.err.rstrip("\n")


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


def test_ext_algebra_side_refuses_an_invalid_algebra(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(dumps_presentation(non_associative_algebra()))
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert main(["ext", str(path), "--imax", "4", "--side", "algebra"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s failed validation: algebra_valid\n" % path
    assert captured.out == ""


def test_ext_jmax_errors(capsys):
    assert main(["ext", "bundled:sym2_d4.json", "--imax", "3", "--jmax", "9"]) == 2
    assert "truncation degree 4" in capsys.readouterr().err
    assert main(["ext", "bundled:c2.json", "--imax", "3", "--jmax", "2"]) == 2


def test_ext_jmax_on_a_finite_input_is_refused_with_one_message(tmp_path, capsys, monkeypatch):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(dumps_presentation(dual_algebra(dual_numbers_dual())))
    cases = [
        ["bundled:c2.json", "--side", "co"],
        ["bundled:sym2_d4.json", "--flatten", "--side", "co"],
        ["bundled:sym2_d4.json", "--flatten", "--side", "op"],
        ["bundled:sym2_d4.json", "--flatten", "--side", "algebra"],
        ["bundled:c3.json", "--side", "algebra"],
        [str(algebra), "--side", "algebra"],
    ]

    def unreachable(*args, **kwargs):
        raise AssertionError("a pipeline ran")

    # the check comes before either pipeline, which would turn this into exit 3
    monkeypatch.setattr("cobarlab.cobar.build_cobar", unreachable)
    monkeypatch.setattr("cobarlab.dualalg.bar_ext_table", unreachable)
    for argv in cases:
        assert main(["ext", *argv, "--imax", "2", "--jmax", "2"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "error: --jmax applies to graded presentations only, not to a finite, flattened or algebra input\n"
        assert captured.out == ""


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
    # the checks are exhaustive: no sample count, no seed
    assert "samples" not in rep["result"] and "seed" not in rep
    contra = tmp_path / "contra.json"
    assert main(["demo", "contra", "--out", str(contra)]) == 0
    rep = _load_out(contra)
    result = rep["result"]
    assert result["contraassociative"] and result["contraunital"]
    assert result["module_trivial"] and result["contra_nontrivial"]
    assert result["splitting_not_contra_linear"]
    assert "samples" not in result and "seed" not in rep


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


def test_resolve_and_compare_refuse_an_invalid_comodule_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_presentation(extension_comodule(divided_line(), (QQ.zero, QQ.zero, QQ.one))))
    out = tmp_path / "report.json"
    assert main(["resolve", str(bad), "--length", "2", "--out", str(out)]) == 2
    assert "target failed comodule validation: coassociative" in capsys.readouterr().err
    assert not out.exists()
    for side in ("--left", "--right"):
        assert main(["compare", "bundled:c3.json", side, str(bad), "--n", "2"]) == 2
        assert "%s comodule failed validation: coassociative" % side[2:] in capsys.readouterr().err


def test_demo_has_no_samples_or_seed_option(tmp_path, capsys):
    out = tmp_path / "demo.json"
    for which in ("nonrational", "contra"):
        for option in ("--samples", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main(["demo", which, option, "1", "--out", str(out)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "unrecognized arguments: %s 1" % option in captured.err and captured.out == ""
            assert not out.exists()


def test_bundled_name_with_path_separator_is_rejected():
    assert main(["validate", "bundled:../c3.json"]) == 2
    assert main(["validate", "bundled:nope.json"]) == 2


def test_internal_error_exits_3_not_a_verdict(monkeypatch, capsys, tmp_path):
    def failing_sweep(cx):
        raise AssertionError("cobar differential does not square to zero at cell (0,())")

    monkeypatch.setattr("cobarlab.cobar.ext_table", failing_sweep)
    out = tmp_path / "report.json"
    assert main(["ext", "bundled:c3.json", "--imax", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "internal error: AssertionError: cobar differential does not square to zero" in captured.err
    assert captured.out == ""
    message = "cobar differential does not square to zero at cell (0,())"
    expected = {"command": "ext", "error": {"message": message, "type": "AssertionError"}, "schema": "cobarlab/1"}
    assert _load_out(out) == expected
    assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    # an --out that fails only when the error report is written (here the
    # check before the work is skipped) still exits 3, not with an escaping exception
    monkeypatch.setattr("cobarlab.cli._check_out", lambda path: None)
    assert main(["ext", "bundled:c3.json", "--imax", "2", "--out", str(tmp_path / "missing" / "r.json")]) == 3


def test_out_of_memory_exits_3_from_every_subcommand(monkeypatch, capsys, tmp_path):
    # an import in the handler would fail here; it must not escape and exit 1
    monkeypatch.setitem(sys.modules, "traceback", None)

    def exhausted(*args, **kwargs):
        raise MemoryError()

    commands = [
        ("cobarlab.cli.validate", ["validate", "bundled:c3.json"]),
        ("cobarlab.cobar.ext_table", ["ext", "bundled:c3.json", "--imax", "2"]),
        ("cobarlab.dualalg.bar_ext_table", ["ext", "bundled:c3.json", "--imax", "2", "--side", "algebra"]),
        ("cobarlab.dualalg.compare_theorem1", ["compare", "bundled:c3.json", "--n", "2"]),
        ("cobarlab.resolve.minimal_coresolution", ["resolve", "bundled:c3.json", "--length", "2"]),
        ("cobarlab.witness.nonrational_report", ["demo", "nonrational"]),
        ("cobarlab.witness.contra_report", ["demo", "contra"]),
    ]
    for target, argv in commands:
        with monkeypatch.context() as patch:
            patch.setattr(target, exhausted)
            out = tmp_path / "report.json"
            assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "internal error: MemoryError\n")
        error = {"message": "", "type": "MemoryError"}
        assert _load_out(out) == {"command": argv[0], "error": error, "schema": "cobarlab/1"}


def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys):
    missing = tmp_path / "missing" / "r.json"
    cases = [
        (tmp_path, "error: --out %s is a directory\n" % tmp_path),
        (missing, "error: --out %s: directory %s does not exist\n" % (missing, missing.parent)),
    ]
    for out, message in cases:
        assert main(["validate", "bundled:c2.json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        # no verdict, no traceback: one line naming the path
        assert (captured.out, captured.err) == ("", message)
    assert not missing.parent.exists()


def test_every_exported_name_resolves_to_its_module():
    # a name whose function was renamed or deleted would fail only on first access
    assert cobarlab.__all__ == sorted(cobarlab._EXPORTS)
    for name, short in cobarlab._EXPORTS.items():
        obj = getattr(importlib.import_module("cobarlab." + short), name)
        assert obj.__module__ == "cobarlab." + short, name
        assert getattr(cobarlab, name) is obj, name


# Runs in a fresh interpreter: imports the package, runs one command, and
# prints which cobarlab submodules each step loaded, whether dataclasses and
# random were, and whether OpenSSL's _hashlib was.  The interpreter runs with
# -S, since a site hook may load any of them before the probe starts.
_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import cobarlab
bare = sorted(m for m in sys.modules if m.startswith("cobarlab."))
from cobarlab.cli import main
code = main(sys.argv[1:])
new = set(sys.modules) - before
ours = sorted(m[len("cobarlab."):] for m in new if m.startswith("cobarlab."))
print(json.dumps({"bare": bare, "code": code, "ours": ours, "dataclasses": "dataclasses" in new, "random": "random" in new,
                  "_hashlib": "_hashlib" in sys.modules}))
"""


def _fresh_process_imports(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cobarlab.__file__)))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE] + argv, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# the report's digests need no OpenSSL where the interpreter has a builtin SHA-256
_BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def test_each_command_imports_only_its_own_pipeline():
    validate = _fresh_process_imports(["validate", "bundled:c3.json"])
    assert validate["bare"] == []
    assert validate["code"] == 0
    assert validate["ours"] == ["cli", "coalg", "exactlin", "presentation"]
    assert validate["dataclasses"] is False
    ext = _fresh_process_imports(["ext", "bundled:c3.json", "--imax", "2"])
    assert ext["code"] == 0
    assert "cobar" in ext["ours"]
    assert not {"dualalg", "resolve", "witness"} & set(ext["ours"])
    resolve = _fresh_process_imports(["resolve", "bundled:c3.json", "--length", "2"])
    assert resolve["code"] == 0
    assert "resolve" in resolve["ours"]
    assert not {"cobar", "dualalg", "witness"} & set(resolve["ours"])
    bar = _fresh_process_imports(["ext", "bundled:c2.json", "--side", "algebra", "--imax", "3"])
    assert bar["code"] == 0
    assert {"dualalg", "exttable"} <= set(bar["ours"])
    assert not {"cobar", "resolve", "witness"} & set(bar["ours"])
    # a graded algebra goes through its flattening, still without the cobar pipeline
    graded_bar = _fresh_process_imports(["ext", "bundled:sym2_d4.json", "--side", "algebra", "--imax", "3"])
    assert graded_bar["code"] == 0
    assert {"dualalg", "exttable"} <= set(graded_bar["ours"])
    assert not {"cobar", "resolve", "witness"} & set(graded_bar["ours"])
    compare = _fresh_process_imports(["compare", "bundled:c3.json", "--left", "regular", "--n", "2"])
    assert compare["code"] == 0
    assert "dualalg" in compare["ours"]
    runs = [validate, ext, resolve, bar, graded_bar, compare]
    # the demos check on finite probe families and draw no random number
    for which in ("nonrational", "contra"):
        demo = _fresh_process_imports(["demo", which])
        assert demo["code"] == 0
        assert "witness" in demo["ours"]
        assert demo["random"] is False
        runs.append(demo)
    if _BUILTIN_SHA256:
        assert [run["_hashlib"] for run in runs] == [False] * len(runs)
