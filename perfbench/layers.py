"""Per-layer metrics from the spans of a traced pass (spans as in job.py).

A span's self time is its duration minus the time its direct children cover.
Metrics ending in ``_s`` are seconds: ``<module>.self_s`` sums the self time
of every span of that module, the others sum self time (or, for the pipeline
entry points, the whole duration) of the named functions.  The other metrics
are counts and repeat exactly from run to run.
"""

from collections import defaultdict

RANK = "exactlin.Matrix.rank"
KRON = "exactlin.Matrix.kron"
CORESOLUTION = "resolve.minimal_coresolution"

# metric -> span names whose self time it sums
SELF_TIME = {
    "presentation.parse_s": "presentation.*",
    "coalg.validate_s": ("coalg.validate", "coalg.validate_graded", "coalg.validate_comodule"),
    "cobar.self_s": "cobar.*",
    "exactlin.kron_s": (KRON,),
    "exactlin.add_s": ("exactlin.Matrix.__add__",),
    "exactlin.matmul_s": ("exactlin.Matrix.__matmul__",),
    "exactlin.echelon_s": ("exactlin.Matrix.rref", "exactlin.Matrix.kernel_basis", "exactlin.Matrix.solve"),
    "exactlin.dense_s": (
        "exactlin.Matrix.from_columns", "exactlin.Matrix.from_rows", "exactlin.Matrix.columns",
        "exactlin.Matrix.column", "exactlin.Matrix.apply",
    ),
    "exactlin.basis_s": ("exactlin.extend_to_basis", "exactlin.quotient_maps"),
    "resolve.self_s": "resolve.*",
    "dualalg.self_s": "dualalg.*",
    "cli.self_s": "cli.*",
}

# metric -> span name whose whole duration it sums
DURATION = {
    "resolve.build_s": CORESOLUTION,
    "resolve.verify_s": "resolve.verify_coresolution",
    "dualalg.bar_s": "dualalg.bar_ext_table",
    "dualalg.module_s": "dualalg.module_ext",
    "dualalg.comodule_s": "dualalg.comodule_ext_dims",
}

COUNTS = (
    "cobar.rank_calls", "cobar.max_cell_dim", "cobar.cell_dim3_sum", "cobar.diff_nnz",
    "exactlin.rank_nnz", "exactlin.kron_calls", "exactlin.kron_entries",
    "exactlin.echelon_calls", "resolve.cogen_sum",
)

TIMES = ("exactlin.rank_qq_s", "exactlin.rank_gfp_s")

NAMES = tuple(SELF_TIME) + tuple(DURATION) + TIMES + COUNTS + ("trace.overhead_frac",)


def unit(name):
    if name == "trace.overhead_frac":
        return "frac"
    return "s" if name.endswith("_s") else "count"


def _matches(pattern, name):
    if isinstance(pattern, str):
        return name.startswith(pattern[:-1])
    return name in pattern


def _under(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def metrics(span_lists, overhead_frac):
    """Metrics over the spans of every job of a pass, as {name: {value, unit}}."""
    v = defaultdict(float)
    for name in COUNTS:
        v[name] = 0
    echelon = SELF_TIME["exactlin.echelon_s"]
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            own = end - start - covered[i]
            for metric, pattern in SELF_TIME.items():
                if _matches(pattern, name):
                    v[metric] += own
            for metric, target in DURATION.items():
                if name == target:
                    v[metric] += end - start
            if name in echelon:
                v["exactlin.echelon_calls"] += 1
            if name == RANK:
                nnz, nrows, ncols, characteristic = info
                v["exactlin.rank_qq_s" if characteristic == 0 else "exactlin.rank_gfp_s"] += own
                v["exactlin.rank_nnz"] += nnz
                if _under(spans, i, "cobar.ext_table"):
                    # the ranked differential leaves a cell of the complex
                    v["cobar.rank_calls"] += 1
                    v["cobar.max_cell_dim"] = max(v["cobar.max_cell_dim"], ncols)
                    v["cobar.cell_dim3_sum"] += ncols**3
                    v["cobar.diff_nnz"] += nnz
            elif name == KRON:
                v["exactlin.kron_calls"] += 1
                v["exactlin.kron_entries"] += info
            elif name == CORESOLUTION and info is not None:
                v["resolve.cogen_sum"] += info
    v["trace.overhead_frac"] = overhead_frac
    return {name: {"value": v[name], "unit": unit(name)} for name in NAMES}
