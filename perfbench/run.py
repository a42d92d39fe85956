"""fpgeom benchmark: runs the CLI on a named workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the CLI is run from `src/` there.
It is a closed loop: one client, one CLI process at a time, each started only
after the previous one ended.  The workload's invocations are repeated as a
whole for about S seconds and every metric is the median over those
repetitions.  Every CLI output is checked; a nonzero exit or a failed check
is a failed operation.

With --trace 0 it reports the end-to-end metrics: wall_s, peak_rss_mb,
setup_s and success_rate.  With --trace 1 each invocation is also replayed
in-process through `fpgeom.cli.main` with spans around the public functions
of each module (see tracer.py), and it reports per-layer times and counts and
trace.overhead_s.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

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
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sphere_sweep", "paraboloid_energy", "random_mixed")

# Start-ups of `fpgeom --help` before each repetition.  Single start-ups vary
# by about half their time as the machine's speed drifts, so setup_s is the
# median of many taken across the whole run.
STARTUPS_PER_REPETITION = 5
# A run must end within 180 s; children still running at this point are
# killed and count as failed.
RUN_DEADLINE_S = 150.0

# what the installed `fpgeom` entry point runs
CLI = [sys.executable, "-c", "import sys; from fpgeom.cli import main; sys.exit(main())"]
TRACED = [sys.executable, str(HERE / "tracer.py")]


class Runner:
    """Starts CLI processes one at a time and keeps the operation tally.

    `errors` holds one message per failed operation, plus any problem found
    with the inputs or references before timing.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, args: list[str], check=None, spans: Path | None = None) -> tuple[float, float]:
        """Wall seconds and peak RSS in MB of one CLI process, or of a traced
        replay that writes its spans to `spans`; `check` judges its output."""
        argv = (TRACED + [str(spans)] if spans else CLI) + args
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
            # the largest over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if code != 0:
            problem = f"exit {code}: " + err_path.read_text(errors="replace").strip()[-500:]
        elif check:
            try:
                problem = check(out_path.read_text(errors="replace"))
            except (KeyError, ValueError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        else:
            problem = None
        if problem:
            self.failed += 1
            label = ("traced " if spans else "") + "fpgeom " + " ".join(args)
            self.errors.append(f"{label}: {problem}")
        return wall, usage.ru_maxrss / 1024.0

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def add_layer_metrics(out: dict[str, float], spans: list) -> None:
    """Add one replay's per-name total and self time, calls and counts to `out`.

    Counts add up, except `bytes`, which keeps the largest single value: the
    size that sets memory.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _, counts), covered in zip(spans, child_time):
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - covered
        out[f"{name}.calls"] += 1
        module = name.split(".", 1)[0]
        for key, value in counts.items():
            if key == "bytes":
                out[f"{name}.bytes"] = max(out[f"{name}.bytes"], value)
            else:
                out[f"{module}.{key}"] += value


def iteration(runner: Runner, invocations, trace: bool) -> dict[str, float]:
    """Run every invocation once; with `trace`, replay each one traced too."""
    out: dict[str, float] = defaultdict(float)
    for inv in invocations:
        wall, rss = runner.run(inv.args, inv.check)
        out["wall_s"] += wall
        out["peak_rss_mb"] = max(out["peak_rss_mb"], rss)
        if not trace:
            continue
        spans_path = runner.workdir / "spans.json"
        traced_wall, _ = runner.run(inv.args, inv.check, spans_path)
        out["trace.overhead_s"] += traced_wall - wall
        if spans_path.exists():
            add_layer_metrics(out, json.loads(spans_path.read_text()))
            spans_path.unlink()
    return out


def measure(runner: Runner, invocations, seconds: float, trace: bool):
    """Repeat the workload while another repetition fits in `seconds`.

    Returns the median start-up time and the metrics of each repetition.
    """
    runner.run(["--help"])  # warm the file cache and the bytecode cache
    startups, results = [], []
    start = time.perf_counter()
    while True:
        startups += [runner.run(["--help"])[0] for _ in range(STARTUPS_PER_REPETITION)]
        results.append(iteration(runner, invocations, trace))
        elapsed = time.perf_counter() - start
        if runner.failed or runner.expired() or elapsed * (1 + 1 / len(results)) > seconds:
            return statistics.median(startups), results


def stamp(seed: int) -> dict:
    commit = None  # a source checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fpgeom" / "cli.py").is_file():
        print(f"benchmark: no fpgeom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import LAYER_METRICS

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
        work = workloads.build(args.workload, args.seed, workdir)
        if work.setup_error:
            runner.errors.append(work.setup_error)
        setup, results = measure(runner, work.invocations, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    # a failed replay may leave its repetition without some keys
    medians = {key: statistics.median(r.get(key, 0.0) for r in results)
               for key in set().union(*results)}
    fail_rate = runner.failed / runner.attempted
    if args.trace:
        metrics = {k: {"value": medians.get(k, 0.0), "unit": _unit(k)} for k in LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": medians["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": medians["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
            "success_rate": {"value": 1 - fail_rate, "unit": "ratio"},
        }
    info = dict(stamp(args.seed), workload=args.workload, trace=args.trace,
                wall_s_samples=[r["wall_s"] for r in results])
    print("stamp " + json.dumps(info))
    for message in runner.errors:
        print("failed: " + message)
    print(f"{args.workload}: wall_s={medians['wall_s']:.3f} s "
          f"peak_rss_mb={medians['peak_rss_mb']:.1f} MB setup_s={setup:.4f} s "
          f"fail_rate={fail_rate:.4g} ({runner.failed}/{runner.attempted} operations)")
    print(json.dumps({"correct": not runner.errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


if __name__ == "__main__":
    sys.exit(main())
