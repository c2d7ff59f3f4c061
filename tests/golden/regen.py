"""Record the golden CLI corpus: every command of ``CASES`` run in process.

    PYTHONPATH=src python tests/golden/regen.py

rewrites ``inputs/`` from the generators in ``INPUTS`` and ``cli.json`` from
``CASES``.  Each record holds a command's argv, exit code, stdout, stderr and
``--out`` report (null when none was written), with ``wall_time_s`` dropped
and a traceback cut from stderr, since those change with the machine and the
source lines.  ``tests/test_golden.py`` reruns every record through ``run``
and requires each field to match exactly, so a changed record is a changed
check and must be named as such.

Before writing, every ``ext`` table in the corpus is recomputed by a second
pipeline: the bar complex of the dual algebra for ``--side co`` and ``op``,
the cobar complex of the dual coalgebra for ``--side algebra`` (for the
shifted algebra, of the coalgebra it was shifted from), and a minimal
coresolution of k for every finite table of a coalgebra.  A table that the
second pipeline does not reproduce stops the script before ``cli.json`` is
written, so the corpus never freezes a number that only one pipeline
computed.  Commands run with ``tests/golden`` as the working directory.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Commands, each run with ``--out`` appended unless it names one itself.
# An --out path that is a directory exits 2 before any work.
CASES = [
    # validate: every input kind, every verdict
    ["validate", "bundled:c2.json"],
    ["validate", "bundled:c3.json"],
    ["validate", "bundled:sym2_d4.json"],
    ["validate", "bundled:broken_counit.json"],
    ["validate", "inputs/path_dual.json"],
    ["validate", "inputs/two_grouplikes.json"],
    ["validate", "inputs/divided_line_gf7.json"],
    ["validate", "inputs/sheared_sym23.json"],
    ["validate", "inputs/ten22_gf5.json"],
    ["validate", "inputs/sym2_d3_p31.json"],
    ["validate", "inputs/quad_dual4.json"],
    ["validate", "inputs/algebra_c3.json"],
    ["validate", "inputs/nonassoc.json"],
    ["validate", "inputs/algebra_sym23.json"],
    ["validate", "inputs/algebra_shifted.json"],
    ["validate", "inputs/comodule_c3.json"],
    ["validate", "inputs/bad_schema.json"],
    ["validate", "inputs/missing.json"],
    ["validate", "bundled:missing.json"],
    ["validate", "bundled:c2.json", "--out", "."],
    # ext, cobar side
    ["ext", "bundled:c2.json", "--imax", "0"],
    ["ext", "bundled:c2.json", "--imax", "5"],
    ["ext", "bundled:c3.json", "--imax", "1"],
    ["ext", "bundled:c3.json", "--imax", "5"],
    ["ext", "bundled:sym2_d4.json", "--imax", "2"],
    ["ext", "bundled:sym2_d4.json", "--imax", "4"],
    ["ext", "bundled:sym2_d4.json", "--imax", "3", "--jmax", "4"],
    ["ext", "bundled:sym2_d4.json", "--flatten", "--imax", "3"],
    ["ext", "inputs/divided_line_gf7.json", "--imax", "5"],
    ["ext", "inputs/sheared_sym23.json", "--imax", "2"],
    ["ext", "inputs/sheared_sym23.json", "--imax", "3"],
    ["ext", "inputs/ten22_gf5.json", "--imax", "3"],
    ["ext", "inputs/ten22_gf5.json", "--flatten", "--imax", "3"],
    ["ext", "inputs/sym2_d3_p31.json", "--imax", "4"],
    ["ext", "inputs/sym2_d3_p31.json", "--imax", "3", "--jmax", "3"],
    ["ext", "inputs/quad_dual4.json", "--imax", "4"],
    ["ext", "inputs/quad_dual4.json", "--flatten", "--imax", "3"],
    # a --jmax below the truncation caps the cells of every layer
    ["ext", "bundled:sym2_d4.json", "--imax", "4", "--jmax", "2"],
    ["ext", "inputs/quad_dual4.json", "--imax", "4", "--jmax", "3"],
    # ext, opposite side
    ["ext", "bundled:c3.json", "--imax", "4", "--side", "op"],
    ["ext", "bundled:sym2_d4.json", "--flatten", "--imax", "3", "--side", "op"],
    ["ext", "inputs/divided_line_gf7.json", "--imax", "4", "--side", "op"],
    ["ext", "inputs/sheared_sym23.json", "--imax", "2", "--side", "op"],
    # ext, algebra side
    ["ext", "bundled:c3.json", "--imax", "3", "--side", "algebra"],
    ["ext", "bundled:sym2_d4.json", "--imax", "4", "--side", "algebra"],
    ["ext", "bundled:sym2_d4.json", "--imax", "3", "--jmax", "3", "--side", "algebra"],
    ["ext", "bundled:sym2_d4.json", "--flatten", "--imax", "4", "--side", "algebra"],
    ["ext", "inputs/divided_line_gf7.json", "--imax", "4", "--side", "algebra"],
    ["ext", "inputs/sheared_sym23.json", "--imax", "3", "--side", "algebra"],
    ["ext", "inputs/ten22_gf5.json", "--imax", "3", "--side", "algebra"],
    ["ext", "inputs/sym2_d3_p31.json", "--flatten", "--imax", "3", "--side", "algebra"],
    ["ext", "inputs/quad_dual4.json", "--imax", "3", "--side", "algebra"],
    ["ext", "bundled:sym2_d4.json", "--imax", "4", "--jmax", "2", "--side", "algebra"],
    ["ext", "inputs/quad_dual4.json", "--imax", "4", "--jmax", "3", "--side", "algebra"],
    ["ext", "inputs/algebra_c3.json", "--imax", "4", "--side", "algebra"],
    ["ext", "inputs/algebra_zero.json", "--imax", "3", "--side", "algebra"],
    ["ext", "inputs/algebra_sym23.json", "--imax", "3", "--side", "algebra"],
    ["ext", "inputs/algebra_shifted.json", "--imax", "3", "--side", "algebra"],
    # ext in characteristic at most the top degree, where binomial coefficients vanish mod p
    ["ext", "inputs/binom8_gf2.json", "--imax", "5"],
    ["ext", "inputs/binom8_gf2.json", "--imax", "5", "--side", "algebra"],
    ["ext", "inputs/binom8_gf3.json", "--imax", "5"],
    ["ext", "inputs/binom8_gf3.json", "--imax", "5", "--side", "algebra"],
    ["ext", "inputs/binom8_gf7.json", "--imax", "5"],
    ["ext", "inputs/binom8_gf7.json", "--imax", "5", "--side", "algebra"],
    # ext, refused
    ["ext", "bundled:c2.json", "--imax", "-1"],
    ["ext", "bundled:c2.json", "--imax", "3", "--jmax", "2"],
    ["ext", "bundled:sym2_d4.json", "--imax", "3", "--jmax", "9"],
    ["ext", "bundled:sym2_d4.json", "--imax", "3", "--side", "op"],
    ["ext", "bundled:broken_counit.json", "--imax", "2"],
    ["ext", "inputs/path_dual.json", "--imax", "3"],
    ["ext", "inputs/path_dual.json", "--imax", "2", "--side", "algebra"],
    ["ext", "inputs/two_grouplikes.json", "--imax", "2"],
    ["ext", "inputs/algebra_c3.json", "--imax", "3"],
    ["ext", "inputs/nonassoc.json", "--imax", "3", "--side", "algebra"],
    ["ext", "inputs/comodule_c3.json", "--imax", "2"],
    # compare
    ["compare", "bundled:c3.json", "--n", "3"],
    ["compare", "bundled:c3.json", "--left", "regular", "--right", "k", "--n", "2"],
    ["compare", "bundled:c2.json", "--left", "k", "--right", "regular", "--n", "2"],
    ["compare", "bundled:c3.json", "--left", "inputs/comodule_c3.json", "--n", "2"],
    ["compare", "bundled:sym2_d4.json", "--flatten", "--n", "2"],
    ["compare", "bundled:sym2_d4.json", "--flatten", "--left", "regular", "--n", "2"],
    ["compare", "inputs/divided_line_gf7.json", "--n", "3"],
    ["compare", "inputs/sheared_sym23.json", "--n", "2"],
    ["compare", "bundled:sym2_d4.json", "--n", "2"],
    ["compare", "bundled:c3.json", "--n", "-1"],
    ["compare", "bundled:c3.json", "--left", "inputs/comodule_c2.json", "--n", "1"],
    ["compare", "inputs/algebra_c3.json"],
    # resolve, unseeded and seeded
    ["resolve", "bundled:c2.json", "--length", "0"],
    ["resolve", "bundled:c3.json", "--length", "4"],
    ["resolve", "bundled:c3.json", "--length", "4", "--seed", "7"],
    ["resolve", "bundled:sym2_d4.json", "--flatten", "--length", "3"],
    ["resolve", "bundled:sym2_d4.json", "--flatten", "--length", "3", "--seed", "7"],
    ["resolve", "inputs/comodule_c3.json", "--length", "3"],
    ["resolve", "inputs/comodule_c3.json", "--length", "3", "--seed", "3"],
    ["resolve", "inputs/sheared_sym23.json", "--length", "3", "--seed", "11"],
    ["resolve", "inputs/divided_line_gf7.json", "--length", "4", "--seed", "2"],
    ["resolve", "inputs/ten22_gf5.json", "--flatten", "--length", "3"],
    ["resolve", "bundled:sym2_d4.json", "--length", "2"],
    ["resolve", "inputs/algebra_c3.json", "--length", "2"],
    ["resolve", "inputs/path_dual.json", "--length", "2"],
    ["resolve", "inputs/two_grouplikes.json", "--length", "2"],
    # demo
    ["demo", "nonrational"],
    ["demo", "contra"],
]


def _inputs():
    """File name -> presented object for every generated input of ``CASES``."""
    sys.path.insert(0, str(HERE.parent))
    from helpers_coalgebras import (
        binomial_coalgebra,
        comul_triples,
        divided_line,
        non_associative_algebra,
        path_dual,
        quad_dual,
        sheared,
        shifted_by_unit,
    )

    from cobarlab.coalg import Coalgebra, extension_comodule, flatten, symmetric_coalgebra, tensor_coalgebra
    from cobarlab.dualalg import dual_algebra
    from cobarlab.exactlin import GF, QQ

    c2, c3 = _load("bundled:c2.json"), _load("bundled:c3.json")
    line = divided_line(GF(7))
    # the divided line plus u with reduced comultiplication u (x) u: g + u is a
    # second grouplike, and the filtration stops at F_2 = span(g, x1, x2)
    u = ((0, 3, 1), (3, 0, 1), (3, 3, 1))
    two_grouplikes = Coalgebra(QQ, 4, 0, (1, 0, 0, 0), comul_triples(divided_line(QQ)) + (u,))
    return {
        "path_dual.json": path_dual(),
        "two_grouplikes.json": two_grouplikes,
        "divided_line_gf7.json": line,
        "sheared_sym23.json": sheared(flatten(symmetric_coalgebra(2, 3, QQ)), 1, 3),
        "ten22_gf5.json": tensor_coalgebra(2, 2, GF(5)),
        "sym2_d3_p31.json": symmetric_coalgebra(2, 3, GF(2**31 - 1)),
        "quad_dual4.json": quad_dual(4),
        "algebra_c3.json": dual_algebra(c3),
        # no degrees, so the bar complex takes the zero grading
        "algebra_zero.json": dual_algebra(sheared(divided_line(QQ), 1, 2)),
        # degree metadata that grades A_+, so the bar complex splits by it
        "algebra_sym23.json": dual_algebra(flatten(symmetric_coalgebra(2, 3, QQ))),
        # an augmentation that is not a coordinate vector: the zero grading
        "algebra_shifted.json": shifted_by_unit(dual_algebra(_shift_source()), 1),
        "nonassoc.json": non_associative_algebra(),
        "comodule_c3.json": extension_comodule(c3, [0, 1, 0]),
        "comodule_c2.json": extension_comodule(c2, [0, 1]),
        # B<=8, the dual of the divided powers: its Ext depends on p
        **{"binom8_gf%d.json" % p: binomial_coalgebra(8, GF(p)) for p in (2, 3, 7)},
    }


def _shift_source():
    """The coalgebra whose dual algebra ``algebra_shifted.json`` presents in a shifted basis."""
    from cobarlab.coalg import flatten, tensor_coalgebra
    from cobarlab.exactlin import QQ

    return flatten(tensor_coalgebra(2, 2, QQ))


def _load(path):
    from cobarlab.cli import _read_input
    from cobarlab.presentation import loads_presentation

    return loads_presentation(_read_input(path)[1])


def run(argv, out_dir):
    """Run one command in process from ``tests/golden``; return its record."""
    from cobarlab.cli import main

    out = os.path.join(out_dir, "out.json")
    if os.path.exists(out):
        os.remove(out)
    full = list(argv) if "--out" in argv else list(argv) + ["--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(full)
    finally:
        os.chdir(cwd)
    report = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        report.pop("wall_time_s", None)
    err = stderr.getvalue()
    if err.startswith("Traceback"):
        err = err[err.index("internal error:") :]
    return {"argv": list(argv), "exit": code, "stdout": stdout.getvalue(), "stderr": err, "report": report}


def _dual_coalgebra(a):
    """The finite coalgebra whose ``dual_algebra`` is ``a``; its augmentation must be a coordinate vector."""
    from cobarlab.coalg import Coalgebra

    f = a.field
    (g,) = [k for k, v in enumerate(a.augmentation) if v]
    comul = [[] for _ in range(a.dim)]
    for (t, c), v in a.mult.entries.items():
        x, y = divmod(c, a.dim)
        comul[t].append((y, x, v))
    return Coalgebra(f, a.dim, g, a.unit, comul, a.degrees)


def _cross_check(record):
    """Raise unless a second pipeline reproduces every Ext table of an ``ext`` record."""
    from cobarlab.cli import build_parser
    from cobarlab.cobar import build_cobar, ext_table
    from cobarlab.coalg import Coalgebra, GradedCoalgebra, flatten, opposite, trivial_comodule
    from cobarlab.dualalg import bar_ext_table, dual_algebra, graded_dual
    from cobarlab.resolve import betti_dims, minimal_coresolution

    args = build_parser().parse_args(record["argv"])
    obj = _load(args.path) if args.path.startswith("bundled:") else _load_file(args.path)
    if args.flatten:
        obj = flatten(obj)
    result = record["report"]["result"]
    if args.side == "algebra":
        if args.path == "inputs/algebra_shifted.json":
            c = _shift_source()
        else:
            c = obj if isinstance(obj, (Coalgebra, GradedCoalgebra)) else _dual_coalgebra(obj)
        tables = [(result["table"], ext_table(build_cobar(c, args.imax, args.jmax)))]
    else:
        c = obj
        if isinstance(c, GradedCoalgebra):
            tables = [(result["table"], bar_ext_table(graded_dual(c), args.imax, args.jmax))]
        else:
            tables = [(result["table"], bar_ext_table(dual_algebra(c), args.imax))]
        if args.side == "op":
            tables.append((result["opposite_table"], bar_ext_table(dual_algebra(opposite(c)), args.imax)))
    if isinstance(c, Coalgebra):
        dims = betti_dims(minimal_coresolution(trivial_comodule(c), args.imax))
        tables.append((result["table"], {"kind": "finite", "imax": args.imax, "entries": [list(e) for e in enumerate(dims)]}))
    for recorded, second in tables:
        second = second if isinstance(second, dict) else second.to_json()
        if recorded != second:
            raise SystemExit("%s: recorded table %s, second pipeline %s" % (" ".join(record["argv"]), recorded, second))


def _load_file(path):
    from cobarlab.presentation import loads_presentation

    return loads_presentation((HERE / path).read_text(encoding="utf-8"))


def main():
    from cobarlab.presentation import dumps_presentation

    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, obj in _inputs().items():
        (inputs / name).write_text(dumps_presentation(obj), encoding="utf-8")
    (inputs / "bad_schema.json").write_text('{"kind": "coalgebra"}\n', encoding="utf-8")
    with tempfile.TemporaryDirectory() as out_dir:
        records = [run(argv, out_dir) for argv in CASES]
    for record in records:
        if record["argv"][0] == "ext" and record["exit"] == 0:
            _cross_check(record)
    with open(HERE / "cli.json", "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    print("recorded %d commands" % len(records))


if __name__ == "__main__":
    main()
