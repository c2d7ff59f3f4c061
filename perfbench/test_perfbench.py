"""Tests of the benchmark itself, on tiny inputs (a few seconds each).

    python3 -m unittest discover -s perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

from inputs import Inputs  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

DETERMINISTIC = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def failing(inp, write):
    """The smoke workload plus a job that exits 2 (no such bundled file)."""
    files, jobs = run.smoke(inp, write)
    missing = run.Job(["ext", "bundled:missing.json", "--imax", "1"], run.ext_dims([1, 1]))
    return files, jobs + [missing]


def bar_and_resolve(inp, write):
    """The smoke jobs that never build a cobar complex."""
    files, jobs = run.smoke(inp, write)
    return files, [job for job in jobs if job.argv[0] != "ext" or "algebra" in job.argv]


class SmokeTest(unittest.TestCase):
    def test_end_to_end_metrics_named_as_declared(self):
        result, samples = run.run_workload(run.smoke, seed=1, seconds=1, trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        self.assertEqual(got, units("end_to_end"))
        for name, entry in result["metrics"].items():
            self.assertGreater(entry["value"], 0, name)
        self.assertGreaterEqual(min(samples.values()), 1)

    def test_per_layer_metrics_named_as_declared(self):
        result, _ = run.run_workload(run.smoke, seed=1, seconds=1, trace=1)
        self.assertTrue(result["correct"])
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        self.assertEqual(got, units("per_layer"))
        self.assertEqual(set(got), set(layers.NAMES))

    def test_failing_job_counts_in_fail_frac(self):
        result, samples = run.run_workload(failing, seed=1, seconds=1, trace=0)
        self.assertFalse(result["correct"])
        # the missing input fails once per cycle; every other job passes
        self.assertEqual(result["failed"], samples["wall_s"])
        self.assertGreater(result["attempted"], result["failed"])

    def test_counters_repeat_exactly(self):
        first, _ = run.run_workload(run.smoke, seed=2, seconds=1, trace=1)
        second, _ = run.run_workload(run.smoke, seed=2, seconds=1, trace=1)
        for name in DETERMINISTIC:
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)
        self.assertGreater(first["metrics"]["cobar.rank_calls"]["value"], 0)

    def test_cobar_counters_zero_without_cobar(self):
        result, _ = run.run_workload(bar_and_resolve, seed=1, seconds=1, trace=1)
        self.assertTrue(result["correct"])
        for name, entry in result["metrics"].items():
            if name.startswith("cobar."):
                self.assertEqual(entry["value"], 0, name)


class TracingTest(unittest.TestCase):
    def test_traced_report_equals_untraced(self):
        scratch = run.ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:

            def write(name, text):
                path = Path(workdir) / name
                path.write_text(text, encoding="utf-8")
                return str(path)

            _, jobs = run.smoke(Inputs(3), write)
            runner = run.Runner(workdir, deadline=time.monotonic() + 120)
            for job in jobs:
                plain, _, no_spans = runner.run_in_process(job, trace=0)
                traced, _, spans = runner.run_in_process(job, trace=1)
                self.assertEqual(no_spans, [])
                self.assertTrue(spans)
                plain.pop("wall_time_s")
                traced.pop("wall_time_s")
                self.assertEqual(plain, traced, job)

    def test_self_time_subtracts_children(self):
        spans = [
            ["cobar.ext_table", 0.0, 10.0, -1, None],
            ["exactlin.Matrix.rank", 1.0, 4.0, 0, [5, 2, 3, 0]],
            ["exactlin.Matrix.rank", 5.0, 6.0, 0, [7, 3, 4, 2147483647]],
        ]
        got = {name: entry["value"] for name, entry in layers.metrics([spans], 0.0).items()}
        self.assertEqual(got["cobar.self_s"], 6.0)
        self.assertEqual(got["exactlin.rank_qq_s"], 3.0)
        self.assertEqual(got["exactlin.rank_gfp_s"], 1.0)
        self.assertEqual(got["cobar.rank_calls"], 2)
        self.assertEqual(got["cobar.max_cell_dim"], 4)
        self.assertEqual(got["cobar.cell_dim3_sum"], 3**3 + 4**3)
        self.assertEqual(got["cobar.diff_nnz"], 12)


class InputsTest(unittest.TestCase):
    def test_seed_zero_is_the_bundled_input(self):
        bundled = (run.SRC / "cobarlab" / "data" / "sym2_d4.json").read_text(encoding="utf-8")
        self.assertEqual(Inputs(0).sym(4, "QQ"), bundled)

    def test_seed_fixes_the_relabelling(self):
        self.assertEqual(Inputs(5).sym(3, "GFP"), Inputs(5).sym(3, "GFP"))
        self.assertNotEqual(Inputs(5).sym(4, "QQ"), Inputs(6).sym(4, "QQ"))
        self.assertEqual(Inputs(5).sym(4, "QQ", relabelled=False), Inputs(0).sym(4, "QQ"))


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        scratch = run.ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, str(Path(bare) / HERE.name / "run.py"), "--workload", "smoke",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
