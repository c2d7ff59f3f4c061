"""Command line front end: load presentations, compute, report.

Subcommands: validate, ext, compare, resolve, demo.  Input paths name JSON
presentation files; the prefix "bundled:" selects a file shipped inside the
package (bundled:c2.json, bundled:c3.json, bundled:sym2_d4.json,
bundled:broken_counit.json).  Text summaries go to standard output; the full
JSON report is written to the --out path when given, with sorted keys so that
identical invocations produce byte-identical payloads apart from the
wall_time_s field.  The report records each input by the sha256 of its
bytes as read, before they are decoded as UTF-8.

Exit codes: 0 when every computed verdict holds, 1 when a mathematical
verdict is false, 2 for unreadable or schema-invalid input, an --out path
that cannot be written (checked before any work) and violated
preconditions, 3 for an internal error (such as a failed d^2 = 0 check);
an internal error still writes --out, as schema, command and the error's
type and message.

Each subcommand imports its own pipeline when it runs, so a command loads
only the modules it uses: ``python -X importtime -m cobarlab.cli validate
bundled:c3.json`` shows it.  The digest comes from the interpreter's builtin
SHA-256 module (_sha2 on 3.12+, _sha256 before), so no command loads
OpenSSL through hashlib unless the interpreter was built without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# hashlib.sha256 would load OpenSSL's libcrypto, a few MB and ms per process
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .coalg import (
    Coalgebra,
    Comodule,
    GradedCoalgebra,
    flatten,
    opposite,
    regular_comodule,
    trivial_comodule,
    validate,
    validate_comodule,
    validate_graded,
)
from .presentation import SCHEMA_TAG, SchemaError, loads_presentation

BUNDLED_PREFIX = "bundled:"


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_input(path):
    """Resolve a path or bundled: name to (display name, file bytes)."""
    if path.startswith(BUNDLED_PREFIX):
        # importlib.resources loads tempfile, shutil and random; only bundled names need it
        from importlib import resources

        name = path[len(BUNDLED_PREFIX):]
        if "/" in name or "\\" in name or not name:
            raise CliError(2, "bad bundled name %r" % name)
        record = resources.files("cobarlab").joinpath("data", name)
        try:
            return path, record.read_bytes()
        except (FileNotFoundError, OSError):
            raise CliError(2, "no bundled file %r" % name)
    try:
        with open(path, "rb") as handle:
            return path, handle.read()
    except OSError as exc:
        raise CliError(2, "cannot read %s (%s)" % (path, exc))


def _load(path, inputs):
    name, data = _read_input(path)
    inputs[name] = "sha256:" + sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(2, "%s is not UTF-8 text (%s)" % (name, exc))
    try:
        return loads_presentation(text)
    except SchemaError as exc:
        raise CliError(2, "%s: %s" % (name, exc))


def _report(command, inputs, result, started, seed=None):
    out = {
        "schema": SCHEMA_TAG,
        "command": command,
        "inputs": dict(sorted(inputs.items())),
        "result": result,
        "wall_time_s": round(time.time() - started, 6),
    }
    if seed is not None:
        out["seed"] = seed
    return out


def _check_out(path):
    """Refuse an --out path that cannot be written, so that no work is done for a report that would be lost."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise CliError(2, "--out %s is a directory" % path)
    if not os.path.isdir(folder):
        raise CliError(2, "--out %s: directory %s does not exist" % (path, folder))
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise CliError(2, "--out %s is not writable" % path)


def _emit(args, report, lines):
    for line in lines:
        print(line)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _maybe_flatten(obj, args):
    if isinstance(obj, GradedCoalgebra) and getattr(args, "flatten", False):
        return flatten(obj)
    return obj


def _table_lines(table):
    if table.kind == "finite":
        return ["ext dims for i <= %d: %s" % (table.imax, " ".join(str(d) for d in table.dims()))]
    lines = []
    for i in range(table.imax + 1):
        cells = ["j=%d:%d" % (j, v) for (ii, j), v in sorted(table.entries.items()) if ii == i]
        lines.append("i=%d  %s" % (i, "  ".join(cells) if cells else "-"))
    return lines


def cmd_validate(args):
    started = time.time()
    inputs = {}
    obj = _load(args.path, inputs)
    if isinstance(obj, Coalgebra):
        rep = validate(obj).to_json()
    elif isinstance(obj, GradedCoalgebra):
        rep = validate_graded(obj).to_json()
    elif isinstance(obj, Comodule):
        base = validate(obj.base)
        com = validate_comodule(obj).ok
        rep = {
            "flags": dict(base.flags, comodule_valid=com),
            "notes": dict(base.notes),
            "ok": base.ok and com,
        }
    else:
        from .dualalg import Algebra, validate_algebra

        if not isinstance(obj, Algebra):
            raise CliError(2, "nothing to validate in %s" % args.path)
        ok = validate_algebra(obj)
        rep = {"flags": {"algebra_valid": ok}, "notes": {}, "ok": ok}
    lines = []
    for flag, value in sorted(rep["flags"].items()):
        lines.append("%s: %s" % (flag, "true" if value else "false"))
    lines.append("validate %s: %s" % (args.path, "ok" if rep["ok"] else "FAILED"))
    _emit(args, _report("validate", inputs, rep, started), lines)
    return 0 if rep["ok"] else 1


def _require_valid(c, path):
    """Refuse a finite or graded coalgebra, or an algebra, that fails a required axiom."""
    if not isinstance(c, (Coalgebra, GradedCoalgebra)):
        from .dualalg import validate_algebra

        if not validate_algebra(c):
            raise CliError(2, "%s failed validation: algebra_valid" % path)
        return
    rep = validate(c) if isinstance(c, Coalgebra) else validate_graded(c)
    if not rep.ok:
        raise CliError(2, "%s failed validation: %s" % (path, rep.reasons))


def _ext_algebra_side(obj, args):
    from .dualalg import bar_ext_table, dual_algebra, graded_dual

    if isinstance(obj, GradedCoalgebra):
        return bar_ext_table(graded_dual(obj), args.imax, args.jmax)
    return bar_ext_table(dual_algebra(obj) if isinstance(obj, Coalgebra) else obj, args.imax)


def _cobar_table(c, args):
    from .cobar import build_cobar, ext_table

    return ext_table(build_cobar(c, args.imax, args.jmax))


def cmd_ext(args):
    started = time.time()
    inputs = {}
    obj = _load(args.path, inputs)
    if isinstance(obj, Comodule):
        raise CliError(2, "ext expects a coalgebra or algebra presentation")
    if not isinstance(obj, (Coalgebra, GradedCoalgebra)) and args.side != "algebra":
        raise CliError(2, "algebra presentations support only --side algebra")
    obj = _maybe_flatten(obj, args)
    if args.jmax is not None and not isinstance(obj, GradedCoalgebra):
        raise CliError(2, "--jmax applies to graded presentations only, not to a finite, flattened or algebra input")
    _require_valid(obj, args.path)
    if args.side == "op" and isinstance(obj, GradedCoalgebra):
        raise CliError(2, "--side op needs a finite presentation; pass --flatten")
    table = _ext_algebra_side(obj, args) if args.side == "algebra" else _cobar_table(obj, args)
    result, lines, code = {"side": args.side, "table": table.to_json()}, _table_lines(table), 0
    if args.side == "op":
        other = _cobar_table(opposite(obj), args)
        symmetric = table == other
        result.update(opposite_table=other.to_json(), symmetry=symmetric)
        lines.append("opposite agrees: %s" % ("true" if symmetric else "FALSE"))
        code = 0 if symmetric else 1
    _emit(args, _report("ext", inputs, result, started), lines)
    return code


def _comodule_argument(token, c, inputs):
    if token == "k":
        return trivial_comodule(c)
    if token == "regular":
        return regular_comodule(c)
    obj = _load(token, inputs)
    if not isinstance(obj, Comodule):
        raise CliError(2, "%s: expected a comodule presentation" % token)
    if obj.base != c:
        raise CliError(2, "%s: comodule base differs from the main input" % token)
    return obj


def cmd_compare(args):
    started = time.time()
    inputs = {}
    obj = _load(args.path, inputs)
    obj = _maybe_flatten(obj, args)
    if isinstance(obj, GradedCoalgebra):
        raise CliError(2, "compare needs a finite presentation; pass --flatten")
    if not isinstance(obj, Coalgebra):
        raise CliError(2, "compare expects a coalgebra presentation")
    if args.n < 0:
        raise CliError(2, "--n must be >= 0")
    left = _comodule_argument(args.left, obj, inputs)
    right = _comodule_argument(args.right, obj, inputs)
    from .dualalg import compare_theorem1

    report = compare_theorem1(obj, left, right, args.n)
    result = report.to_json()
    lines = [
        "comodule side: %s" % " ".join(str(d) for d in report.comodule_dims),
        "module side:   %s" % " ".join(str(d) for d in report.module_dims),
        "agree through degree %d: %s" % (args.n, "true" if report.ok else "FALSE"),
    ]
    _emit(args, _report("compare", inputs, result, started), lines)
    return 0 if report.ok else 1


def cmd_resolve(args):
    started = time.time()
    inputs = {}
    obj = _load(args.path, inputs)
    obj = _maybe_flatten(obj, args)
    if isinstance(obj, GradedCoalgebra):
        raise CliError(2, "resolve needs a finite presentation; pass --flatten")
    if isinstance(obj, Coalgebra):
        target = trivial_comodule(obj)
    elif isinstance(obj, Comodule):
        target = obj
    else:
        raise CliError(2, "resolve expects a coalgebra or comodule presentation")
    import random

    from .resolve import betti_dims, minimal_coresolution, verify_coresolution

    rng = random.Random(args.seed) if args.seed is not None else None
    res = minimal_coresolution(target, args.length, rng)
    verified = verify_coresolution(res)
    dims = betti_dims(res)
    result = {
        "target_dim": target.dim,
        "length": args.length,
        "cogenerator_dims": list(dims),
        "step_dims": [target.base.dim * v for v in dims],
        "minimal": res.minimal,
        "verified": verified,
    }
    lines = [
        "cogenerator dims: %s" % " ".join(str(d) for d in dims),
        "verified: %s" % ("true" if verified else "FALSE"),
    ]
    _emit(args, _report("resolve", inputs, result, started, seed=args.seed), lines)
    return 0 if verified and res.minimal else 1


def cmd_demo(args):
    started = time.time()
    from .witness import contra_report, nonrational_report

    if args.which == "nonrational":
        rep = nonrational_report()
        ok = rep["module_axioms_verified"] and not rep["is_rational"] and rep["max_rational_submodule"] == [[1, 0]]
        lines = [
            "module axioms verified on every probe pair: %s" % rep["module_axioms_verified"],
            "is_rational: %s" % rep["is_rational"],
            "max rational submodule: span%s" % rep["max_rational_submodule"],
        ]
    else:
        rep = contra_report()
        flags = "contraassociative contraunital module_trivial contra_nontrivial splitting_not_contra_linear".split()
        ok = all(rep[flag] for flag in flags)
        lines = ["%s: %s" % (flag, rep[flag]) for flag in flags]
    lines.append("demo %s: %s" % (args.which, "ok" if ok else "FAILED"))
    _emit(args, _report("demo", {}, rep, started), lines)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cobarlab",
        description="Exact homological invariants of conilpotent coalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a presentation")
    p.add_argument("path")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ext", help="Ext table of the trivial comodule")
    p.add_argument("path")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--side", choices=("co", "op", "algebra"), default="co")
    p.add_argument("--flatten", action="store_true", help="flatten a graded presentation first")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("compare", help="comodule-side vs module-side Ext dims")
    p.add_argument("path")
    p.add_argument("--left", default="k", help="comodule file, or k, or regular")
    p.add_argument("--right", default="k", help="comodule file, or k, or regular")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("resolve", help="minimal cofree coresolution")
    p.add_argument("path")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="randomize the retraction choices")
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("demo", help="finite models of the two infinite witnesses")
    p.add_argument("which", choices=("nonrational", "contra"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc.message, file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # computations signal violated preconditions with ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the traceback holds the frames of the failed work: drop it before
        # anything else allocates, and import nothing, so that no second
        # exception escapes and exits 1 as if a verdict were negative
        exc.__traceback__ = None
        print("internal error: MemoryError", file=sys.stderr)
        return _emit_error(args, exc)
    except Exception as exc:
        # anything else is a fault of the program, never a verdict; traceback
        # is imported here because importing it slows every command's start-up
        import traceback

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return _emit_error(args, exc)


def _emit_error(args, exc):
    """Write an internal error's --out record; exit 3 whether or not that succeeds."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    try:
        _emit(args, {"schema": SCHEMA_TAG, "command": args.command, "error": error}, [])
    except (OSError, MemoryError):
        pass  # the error is already on stderr and the exit code stays 3
    return 3


if __name__ == "__main__":
    sys.exit(main())
