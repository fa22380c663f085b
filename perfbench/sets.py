"""Run sets of benchmark runs, record their metadata, and compare sets.

Usage, from the repository root::

    python3 perfbench/sets.py run --runs 10 --out perfbench/out/set-a.json
    python3 perfbench/sets.py run --runs 5 --workloads cohort_hybrid --out perfbench/out/try.json
    python3 perfbench/sets.py compare perfbench/out/set-a.json perfbench/out/set-b.json

``run`` makes ``--runs`` runs of every workload, one fresh process each,
run ``i`` with seed ``--seed-base + i``, interleaving the workloads so
that a drift of the machine spreads over all of them.  It records with
the set: the git commit (or ``null`` outside a git checkout) and a digest
of ``src/``, the Python and numpy versions, ``nproc``, the load average,
and the fixed calibration kernels of :mod:`calibration` timed before and
after the set.
These are metadata, not metrics: a calibration that moved between two
sets points at the machine, not the program.

For each end-to-end metric the set reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, against the metric's
bound in ``BENCHMARK.json``.  ``compare`` checks that the second set's
median is not worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}

def calibration_seconds():
    """Seconds the benchmark's fixed calibration kernels take now."""
    return sum(calibration.kernel_seconds())


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True,
                                   timeout=30, check=False)
    except OSError:
        return None
    return completed.stdout.strip() or None


def metadata():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_once(workload, seed, seconds, trace=0):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=900, check=False)
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    result = json.loads(lines[-1])
    result["output"] = lines[:-1]
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarize(runs_by_workload):
    summary = {}
    for workload, runs in runs_by_workload.items():
        rows = {}
        for name, spec in BOUNDS.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, width = spread(values)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": width, "bound": spec["bound"],
                          "values": values}
        summary[workload] = rows
    return summary


def print_summary(summary):
    print(f"{'workload':<16} {'metric':<13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    ok = True
    for workload, rows in summary.items():
        for name, row in rows.items():
            if name == "setup_s":
                verdict = "(not gated)"
            elif row["spread"] < row["bound"] / 3.0:
                verdict = "steady"
            elif row["spread"] <= row["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"{workload:<16} {name:<13} {row['median']:>12.6g} "
                  f"{row['q1']:>12.6g} {row['q3']:>12.6g} "
                  f"{row['spread']:>7.3f} {row['bound']:>6}  {verdict}")
    return ok


def command_run(args):
    workloads = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    seconds = args.seconds or BENCHMARK["run_seconds"]
    record = {"metadata": metadata(), "seconds": seconds,
              "seed_base": args.seed_base,
              "load_before": os.getloadavg(),
              "calibration_before_s": calibration_seconds()}
    runs = {workload: [] for workload in workloads}
    failures = []
    for index in range(args.runs):
        for workload in workloads:
            result = run_once(workload, args.seed_base + index, seconds)
            runs[workload].append(result)
            if not result["correct"] or result["failed"]:
                failures.append((workload, result["seed"]))
            values = " ".join(
                f"{name}={value['value']:.6g}"
                for name, value in result["metrics"].items())
            print(f"run {index + 1}/{args.runs} {workload} seed "
                  f"{result['seed']}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{values} ({result['wall_s']:.1f} s)", flush=True)
    record["calibration_after_s"] = calibration_seconds()
    record["load_after"] = os.getloadavg()
    record["runs"] = runs
    record["summary"] = summarize(runs)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1))
    print(f"calibration {record['calibration_before_s']:.4f} s before, "
          f"{record['calibration_after_s']:.4f} s after; metadata "
          f"{json.dumps(record['metadata'])}")
    steady = print_summary(record["summary"])
    if failures:
        print(f"incorrect runs: {failures}")
    return 0 if steady and not failures else 1


def command_compare(args):
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    for label, record in (("first", first), ("second", second)):
        print(f"{label}: calibration {record['calibration_before_s']:.4f} / "
              f"{record['calibration_after_s']:.4f} s, source "
              f"{record['metadata']['source_digest']}")
    ok = True
    print(f"{'workload':<16} {'metric':<13} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload, rows in first["summary"].items():
        for name, row in rows.items():
            other = second["summary"][workload][name]
            a, b = row["median"], other["median"]
            if BOUNDS[name]["better"] == "lower":
                worse = (b - a) / a
            else:
                worse = (a - b) / a
            passed = worse <= BOUNDS[name]["bound"]
            ok &= passed
            print(f"{workload:<16} {name:<13} {a:>12.6g} {b:>12.6g} "
                  f"{worse:>9.3f} {BOUNDS[name]['bound']:>6}  "
                  f"{'ok' if passed else 'WORSE'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="make a set of runs")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seconds", type=int, default=None)
    run.add_argument("--seed-base", type=int, default=0)
    run.add_argument("--workloads", nargs="+", default=None)
    run.add_argument("--out", required=True)
    compare = commands.add_parser("compare", help="compare two sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        return command_run(args)
    return command_compare(args)


if __name__ == "__main__":
    sys.exit(main())
