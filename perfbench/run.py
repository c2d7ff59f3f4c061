"""cobarlab benchmark: named workloads through the real ``cobarlab`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only.  The inputs are generated from
the seed (see ``inputs.py``) into a scratch directory under ``.perfbench/``.

Load model: a closed loop with one client.  Jobs run one after another, each
a fresh ``python -m cobarlab.cli`` process, since a user pays interpreter
start-up on every command.  After one untimed warm-up job the benchmark
repeats the workload's cycle of jobs until ``--seconds`` are used; after every
job it runs one setup round (``cobarlab validate`` on every generated input)
and two runs of the fixed reference job (``reference.py``).  Every job's
``--out`` report is checked exactly; a non-zero exit, a timeout or a wrong
answer counts as a failed job.

The shared host's speed drifts by tens of percent over minutes, and the drift
slows every process roughly alike.  So the times are reported in reference seconds:
each measured median is scaled by REFERENCE_S over the run's median time of
the reference job, whose work never changes.  The raw medians are printed as
well.

``--trace 0`` prints the end-to-end metrics (medians over cycles).
``--trace 1`` runs the setup validations and one cycle in-process, once
untraced and once traced (see ``job.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own tests: ``python3 -m unittest discover -s perfbench``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
SETUP_ROUNDS = 9
# the reference job's time on the host that defines a reference second
REFERENCE_S = 0.25
REFERENCE_RUNS = 2  # per setup round; the scale is only as steady as its median

SYM2_EXT = [1, 2, 7, 17, 52]
SYM2_D3_COMPARE = [4, 5, 20, 40]

# The seeded resolve job does not follow the workload seed: over ten seeds its
# cost ranged from 0.9 s to 10.4 s (fill-in from the random retractions), which
# would swamp every other change.  It runs the ROADMAP baseline command.
BASELINE_RESOLVE_SEED = 7


class Job:
    """One CLI command and the exact check on its ``--out`` report."""

    def __init__(self, argv, check):
        self.argv = list(argv)
        self.check = check

    def __repr__(self):
        return "cobarlab " + " ".join(os.path.basename(a) if os.sep in a else a for a in self.argv)


def ext_dims(expected):
    return lambda rep: rep["result"]["table"]["entries"] == [[i, d] for i, d in enumerate(expected)]


def resolve_dims(expected):
    return lambda rep: (
        rep["result"]["cogenerator_dims"] == expected
        and rep["result"]["verified"] is True
        and rep["result"]["minimal"] is True
    )


def compare_dims(expected=None):
    def check(rep):
        res = rep["result"]
        same = res["comodule_dims"] == res["module_dims"]
        return res["ok"] is True and same and expected in (None, res["module_dims"])

    return check


def validated(rep):
    return rep["result"]["ok"] is True


# -- workloads -----------------------------------------------------------------
# Each takes (inputs, write) and returns (files to validate, cycle of jobs);
# write(name, text) stores a generated input and returns its path.


def cobar_ext(inp, write):
    sym = write("sym2_d4_qq.json", inp.sym(4, "QQ"))
    c3 = write("c3.json", inp.bundled("c3.json"))
    return [sym, c3], [
        Job(["ext", sym, "--flatten", "--imax", "4"], ext_dims(SYM2_EXT)),
        Job(["ext", c3, "--imax", "13"], ext_dims([1] * 14)),
    ]


def bar_ext(inp, write):
    sym = write("sym2_d4_gfp.json", inp.sym(4, "GFP"))
    return [sym], [
        Job(["ext", sym, "--flatten", "--side", "algebra", "--imax", "4"], ext_dims(SYM2_EXT)),
    ]


def resolutions(inp, write):
    sym4 = write("sym2_d4_qq.json", inp.sym(4, "QQ", relabelled=False))
    sym3 = write("sym2_d3_qq.json", inp.sym(3, "QQ"))
    seed = str(BASELINE_RESOLVE_SEED)
    return [sym4, sym3], [
        Job(["resolve", sym4, "--flatten", "--length", "4", "--seed", seed], resolve_dims(SYM2_EXT)),
        Job(["compare", sym3, "--flatten", "--left", "regular", "--right", "k", "--n", "3"],
            compare_dims(SYM2_D3_COMPARE)),
    ]


def smoke(inp, write):
    """Tiny inputs through every pipeline, for the benchmark's own tests."""
    c2 = write("c2.json", inp.bundled("c2.json"))
    c3 = write("c3.json", inp.bundled("c3.json"))
    seed = str(BASELINE_RESOLVE_SEED)
    return [c2, c3], [
        Job(["ext", c3, "--imax", "6"], ext_dims([1] * 7)),
        Job(["ext", c2, "--side", "algebra", "--imax", "4"], ext_dims([1] * 5)),
        Job(["resolve", c3, "--length", "3", "--seed", seed], resolve_dims([1] * 4)),
        Job(["compare", c3, "--left", "regular", "--right", "k", "--n", "2"], compare_dims()),
    ]


WORKLOADS = {"cobar_ext": cobar_ext, "bar_ext": bar_ext, "resolutions": resolutions, "smoke": smoke}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# -- running jobs ----------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("COBARLAB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # fixed iteration order, so the counters repeat
    return env


class Runner:
    """Runs jobs as child processes in one scratch directory; tallies failures."""

    def __init__(self, workdir, deadline):
        self.workdir = Path(workdir)
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def _timeout(self):
        return max(1.0, self.deadline - time.monotonic())

    def _finish(self, job, code, out_path, err_path, timed_out):
        """Count the job; return its report if it passed its check, else None."""
        self.attempted += 1
        report = None
        if not timed_out and code == 0:
            try:
                with open(out_path, encoding="utf-8") as handle:
                    report = json.load(handle)
                if not job.check(report):
                    report = None
            except (OSError, ValueError, KeyError, TypeError):
                report = None
        if report is None:
            self.failed += 1
            reason = "timed out" if timed_out else "exit %s" % code
            tail = Path(err_path).read_text(encoding="utf-8", errors="replace")[-400:].strip()
            print("FAILED (%s): %r %s" % (reason, job, tail), file=sys.stderr)
        return report

    def _paths(self):
        self._count += 1
        return (self.workdir / ("out%d.json" % self._count), self.workdir / ("err%d.txt" % self._count))

    def _spawn(self, argv, err):
        """Run argv to completion: (exit code, wall s, rusage, timed out)."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.workdir)
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(self._timeout(), kill)
        timer.start()
        try:
            # reap through wait4 so that this child's own rusage is read
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, expired.is_set()

    def run(self, job):
        """Run ``job`` as a fresh CLI process: (report or None, wall s, cpu s, max RSS MB)."""
        out_path, err_path = self._paths()
        argv = [sys.executable, "-m", "cobarlab.cli"] + job.argv + ["--out", str(out_path)]
        with open(err_path, "w", encoding="utf-8") as err:
            code, wall, usage, timed_out = self._spawn(argv, err)
        report = self._finish(job, code, out_path, err_path, timed_out)
        return report, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def run_reference(self):
        """Wall seconds of one run of the fixed reference job."""
        with open(os.devnull, "w") as err:
            code, wall, _, _ = self._spawn([sys.executable, str(HERE / "reference.py")], err)
        if code != 0:
            raise RuntimeError("reference job failed with exit %s" % code)
        return wall

    def run_in_process(self, job, trace):
        """Run ``job`` inside one job.py process: (report or None, in-process wall s, spans)."""
        out_path, err_path = self._paths()
        record = self.workdir / ("record%d.json" % self._count)
        argv = [sys.executable, str(HERE / "job.py"), "--trace", str(trace), "--record", str(record), "--"]
        argv += job.argv + ["--out", str(out_path)]
        with open(err_path, "w", encoding="utf-8") as err:
            code, _, _, timed_out = self._spawn(argv, err)
        report = self._finish(job, code, out_path, err_path, timed_out)
        if report is None:
            return None, 0.0, []
        with open(record, encoding="utf-8") as handle:
            rec = json.load(handle)
        return report, rec["wall_s"], rec["spans"]


def setup_job(path):
    return Job(["validate", path], validated)


def measure(runner, files, jobs, seconds):
    """End-to-end metrics: medians over cycles of jobs and over setup rounds.

    The host's speed also changes from second to second, so the setup rounds
    and reference jobs are spread through the run rather than run together.
    """
    setup_jobs = [setup_job(p) for p in files]
    runner.run(setup_jobs[0])  # warm-up: imports, byte-code cache, page cache
    peak = 0.0
    setup = [[] for _ in setup_jobs]
    reference = []

    def setup_round():
        nonlocal peak
        for times, job in zip(setup, setup_jobs):
            _, wall, _, rss = runner.run(job)
            times.append(wall)
            peak = max(peak, rss)
        reference.extend(runner.run_reference() for _ in range(REFERENCE_RUNS))

    walls, cpus, cycle_times = [], [], []
    per_job = [[] for _ in jobs]
    start = time.monotonic()
    while True:
        began = time.monotonic()
        wall = cpu = 0.0
        for times, job in zip(per_job, jobs):
            _, w, c, rss = runner.run(job)
            times.append(w)
            wall += w
            cpu += c
            peak = max(peak, rss)
            setup_round()
        walls.append(wall)
        cpus.append(cpu)
        now = time.monotonic()
        cycle_times.append(now - began)
        # start another cycle only if it should end within the budget
        if now - start + statistics.median(cycle_times) > seconds or now >= runner.deadline:
            break
    while len(setup[0]) < SETUP_ROUNDS:
        setup_round()
    for times, job in zip(per_job, jobs):
        print("  %8.3f s  median of %d  %r" % (statistics.median(times), len(times), job))
    raw = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": sum(statistics.median(times) for times in setup),
    }
    scale = REFERENCE_S / statistics.median(reference)
    print("  reference job %.3f s (median of %d); raw wall_s %.3f, cpu_s %.3f, setup_s %.3f; scale %.4f" % (
        statistics.median(reference), len(reference), raw["wall_s"], raw["cpu_s"], raw["setup_s"], scale))
    values = {name: value * scale for name, value in raw.items()}
    values["peak_rss_mb"] = peak
    samples = {"wall_s": len(walls), "cpu_s": len(cpus), "setup_s": len(setup[0])}
    metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}
    return metrics, samples


def measure_layers(runner, files, jobs):
    """Per-layer metrics from one traced pass over the setup jobs and one cycle."""
    all_jobs = [setup_job(p) for p in files] + list(jobs)
    plain = traced = 0.0
    spans = []
    for job in all_jobs:
        _, wall, _ = runner.run_in_process(job, trace=0)
        plain += wall
        _, wall, job_spans = runner.run_in_process(job, trace=1)
        traced += wall
        spans.append(job_spans)
    return layers.metrics(spans, traced / plain - 1.0 if plain > 0 else 0.0), {}


def run_workload(workload, seed, seconds, trace):
    """Generate the inputs of ``workload`` for ``seed`` and measure.

    Returns (result, samples): the result object the benchmark prints, and the
    sample count behind each median.
    """
    from inputs import Inputs  # imports cobarlab, found through sys.path

    started = time.monotonic()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (workload.__name__, seed), dir=scratch)
    try:
        inp = Inputs(seed)

        def write(fname, text):
            path = Path(workdir) / fname
            path.write_text(text, encoding="utf-8")
            return str(path)

        files, jobs = workload(inp, write)
        runner = Runner(workdir, started + DEADLINE_S)
        if trace:
            metrics, samples = measure_layers(runner, files, jobs)
        else:
            metrics, samples = measure(runner, files, jobs, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description="cobarlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cobarlab" / "cli.py").is_file():
        print("error: no cobarlab sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, samples = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for metric, entry in result["metrics"].items():
        count = samples.get(metric)
        note = " (median of %d)" % count if count else ""
        print("%-24s %14.6f %-6s%s" % (metric, entry["value"], entry["unit"], note))
    print("fail_frac %.6f (%d of %d jobs failed)" % (
        result["failed"] / result["attempted"] if result["attempted"] else 1.0, result["failed"], result["attempted"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
