"""Run one cobarlab CLI command inside this process, traced or not.

    python3 perfbench/job.py --trace 0|1 --record PATH -- <cobarlab arguments>

The cobarlab package is imported from ``sys.path`` as usual (the benchmark
sets PYTHONPATH to the checkout's ``src``).  With ``--trace 1`` the public
functions of the traced modules and the named ``Matrix`` methods are wrapped
before the command runs; every call becomes a span kept in memory.  PATH
receives ``{"exit": code, "wall_s": seconds, "spans": [...]}`` when the
command ends, where each span is ``[name, start, end, parent, info]``:
``parent`` is the index of the enclosing span or -1, and ``info`` holds the
counts taken for that name (see ``INFO``) or null.  The wrappers only time and
count, so a traced command writes the same ``--out`` report as an untraced
one apart from ``wall_time_s``.
"""

import argparse
import importlib
import inspect
import json
import sys
import time

MODULES = ("presentation", "coalg", "cobar", "exactlin", "resolve", "dualalg", "cli")

MATRIX_METHODS = (
    "rank", "kron", "__add__", "__matmul__", "rref", "kernel_basis", "solve",
    "from_columns", "from_rows", "columns", "column", "apply",
)


def _rank_info(args, result):
    m = args[0]
    return [m.nnz(), m.nrows, m.ncols, m.field.characteristic()]


INFO = {
    "exactlin.Matrix.rank": _rank_info,
    "exactlin.Matrix.kron": lambda args, result: result.nnz(),
    "resolve.minimal_coresolution": lambda args, result: sum(result.cogenerator_dims),
}


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        info = INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [name, start, clock(), parent, None]
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = [name, start, end, parent, info(args, result) if info else None]
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the traced layers and patch every alias under cobarlab.*."""
        replaced = {}
        for short in MODULES:
            module = importlib.import_module("cobarlab." + short)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    replaced[obj] = self.wrap("%s.%s" % (short, attr), obj)
        from cobarlab.exactlin import Matrix

        for attr in MATRIX_METHODS:
            raw = inspect.getattr_static(Matrix, attr)
            if isinstance(raw, staticmethod):
                setattr(Matrix, attr, staticmethod(self.wrap("exactlin.Matrix." + attr, raw.__func__)))
            else:
                setattr(Matrix, attr, self.wrap("exactlin.Matrix." + attr, raw))
        for name, module in list(sys.modules.items()):
            if name == "cobarlab" or name.startswith("cobarlab."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    from cobarlab import cli

    tracer = Tracer()
    if args.trace:
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(command)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "wall_s": wall, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
