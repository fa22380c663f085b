"""The benchmark's own tests.  Never part of a benchmark run.

Usage, from the repository root::

    python3 perfbench/selftest.py                  # every check (about 6 min)
    python3 perfbench/selftest.py sensitivity      # one check

Checks:

* ``definition`` — ``BENCHMARK.json`` follows the benchmark contract and
  agrees with :mod:`metrics` and :mod:`workloads`;
* ``bare`` — in a directory holding only ``BENCHMARK.json`` and
  ``perfbench/`` (no program source) the command fails without a result;
* ``held_out`` — every workload is correct on the held-out seed of
  ``pins.json``, in both modes, and every layer records calls on its home
  workload;
* ``counts`` — two traced runs of the same seed, in two processes, report
  identical values for every count the harness marks exact;
* ``sensitivity`` — a fixed delay injected into ``EnergyLedger.post``
  moves ``sim_s_per_s`` on ``battery_hour`` (its home) past the bound and
  leaves ``dense_hour`` (its bypass) inside it.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS, load_pins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

#: Delay injected per ``EnergyLedger.post`` call by the sensitivity check.
INJECTED_MICROSECONDS = 8.0
SENSITIVITY_SEEDS = (11, 12, 13)
SHORT_SECONDS = 4

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed, seconds=SHORT_SECONDS, trace=0, extra=(),
        cwd=ROOT):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra]
    completed = subprocess.run(command, cwd=cwd, capture_output=True,
                               text=True, timeout=600, check=False)
    return completed


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_definition():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert len(BENCHMARK["command"]) <= 32
    for part in BENCHMARK["command"]:
        assert len(part) <= 200 and not part.startswith("/")
        assert ".." not in part.split("/")
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["why"] == WORKLOADS[workload["name"]].why
    end_to_end = [(m["name"], m["unit"], m["better"])
                  for m in BENCHMARK["end_to_end"]]
    assert end_to_end == list(metrics.END_TO_END)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert BOUND["setup_s"] == max(BOUND.values())
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in BENCHMARK["per_layer"]]
    assert per_layer == list(metrics.PER_LAYER)
    all_names = [m[0] for m in end_to_end + per_layer] + names
    assert len(all_names) == len(set(all_names)), "a name is used twice"
    for name in all_names:
        assert NAME.match(name), name
    for _, unit, better in end_to_end + per_layer:
        assert UNIT.match(unit) and better in ("lower", "higher"), unit
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    print(f"  {len(names)} workloads, runs of {BENCHMARK['run_seconds']} s")


def check_bare():
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        scratch = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.
                        ignore_patterns("out", "__pycache__"))
        started = time.perf_counter()
        completed = run("dense_hour", 0, cwd=scratch)
        elapsed = time.perf_counter() - started
    assert completed.returncode != 0, "bare checkout exited 0"
    assert elapsed < 180.0
    for line in completed.stdout.splitlines():
        assert not line.startswith("{"), f"printed a result: {line}"
    print(f"  exit {completed.returncode} after {elapsed:.1f} s: "
          f"{completed.stderr.strip()}")


def check_held_out():
    seed = load_pins()["held_out_seed"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = run(workload, seed, trace=trace)
            result = result_of(completed)
            assert result["correct"] and result["failed"] == 0, (
                workload, trace, completed.stdout)
            names = {name for name, _, _ in
                     (metrics.PER_LAYER if trace else metrics.END_TO_END)}
            assert set(result["metrics"]) == names
            print(f"  {workload} trace={trace}: "
                  f"{result['attempted']} attempted, 0 failed")


def check_counts():
    trace_file = str(HERE / "out" / "trace-{}-seed3.json")
    for workload in WORKLOADS:
        first, second = (result_of(run(workload, 3, trace=1))["metrics"]
                         for _ in range(2))
        exact = json.loads(Path(trace_file.format(workload)).read_text())[
            "exact_counts"]
        assert exact == list(metrics.EXACT_COUNTS), (workload, exact)
        differ = [name for name in metrics.EXACT_COUNTS
                  if first[name]["value"] != second[name]["value"]]
        assert not differ, (workload, differ)
        varying = [name for name in metrics.VARYING_COUNTS
                   if first[name]["value"] != second[name]["value"]]
        print(f"  {workload}: {len(exact)} exact counts repeat within and "
              f"across processes; varied: {', '.join(varying) or 'none'}")


def check_sensitivity():
    inject = ("--inject", f"ledger.post={INJECTED_MICROSECONDS}")
    bound = BOUND["sim_s_per_s"]
    moved = {}
    for workload in ("battery_hour", "dense_hour"):
        plain, slowed = [], []
        for seed in SENSITIVITY_SEEDS:
            # Alternate which side runs first, so drift hits both.
            pair = [((), plain), (inject, slowed)]
            if seed % 2:
                pair.reverse()
            for extra, sink in pair:
                result = result_of(run(workload, seed, seconds=6,
                                       extra=extra))
                assert result["correct"], (workload, extra)
                sink.append(result["metrics"]["sim_s_per_s"]["value"])
        change = 1.0 - statistics.median(slowed) / statistics.median(plain)
        moved[workload] = change
        print(f"  {workload}: sim_s_per_s {statistics.median(plain):.6g} -> "
              f"{statistics.median(slowed):.6g} body-s/s "
              f"({change:+.1%} slower; bound {bound:.0%})")
    assert moved["battery_hour"] > bound, "home workload did not resolve it"
    assert abs(moved["dense_hour"]) < bound, "bypass workload moved"


CHECKS = {
    "definition": check_definition,
    "bare": check_bare,
    "held_out": check_held_out,
    "counts": check_counts,
    "sensitivity": check_sensitivity,
}


def main(argv):
    (HERE / "out").mkdir(exist_ok=True)
    selected = argv or list(CHECKS)
    unknown = set(selected) - set(CHECKS)
    if unknown:
        print(f"unknown check(s): {', '.join(sorted(unknown))} "
              f"(known: {', '.join(CHECKS)})")
        return 2
    failed = []
    for name in selected:
        print(f"{name}:", flush=True)
        try:
            CHECKS[name]()
        except AssertionError as error:
            failed.append(name)
            print(f"  FAIL {error!r}")
        else:
            print("  ok")
    print("FAILED: " + ", ".join(failed) if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
