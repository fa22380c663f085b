"""Benchmark harness for the body-network simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense_hour --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

One run is one fresh process.  With ``--trace 0`` it reports the
end-to-end metrics, measured with tracing off:

* ``setup_s`` — from before ``import repro`` to the first measured call
  (import, spec lookup, first build), the median of this process and
  two set-up-only child processes;
* ``sim_s_per_s`` — simulated body-seconds per nominal host second of
  the measured calls, over the iterations that fit in ``--seconds``: the
  host's speed is sampled about every half second of a call, and each
  stretch between two samples is scaled to the nominal host (see
  :mod:`calibration`);
* ``peak_rss_mib`` — peak resident set of this process at the end of the
  measured phase.

With ``--trace 1`` the first half of ``--seconds`` runs untraced and the
second half traced (see :mod:`tracing`), and the run reports the
per-layer metrics of :data:`metrics.PER_LAYER`.

Every iteration's result is checked (see :mod:`workloads`); a body or
member whose run raised or failed its check counts as failed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import metrics
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up-only child processes whose times join this process's own.
SETUP_PROBES = 2
#: The traced phase runs at least this many iterations, so that exact
#: counts can be compared between them.
MIN_TRACED_ITERATIONS = 2


class SetupError(Exception):
    """The program under test cannot be imported or built."""


def setup(workload, seed):
    """Import the program and set the workload up; returns seconds taken."""
    started = time.perf_counter()
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SetupError(f"imported repro from {repro.__file__}, "
                         f"not from {SOURCE}")
    workload.setup(seed)
    return time.perf_counter() - started


def run_phase(workload, seconds, tracer=None, min_iterations=1):
    """Iterate the workload for *seconds*; returns the iteration records.

    An iteration starts only if one more, as long as the last, still ends
    within *seconds*: the phase never overruns by a whole iteration.
    Untraced, the host clock also samples inside long calls; traced, only
    between them, so that no sample falls inside a span.
    """
    clock = calibration.HostClock()
    patches = tracing.Patches()
    if tracer is None:
        calibration.install_ticks(patches, clock)
    records = []
    now = time.perf_counter()
    deadline = now + seconds
    last = 0.0
    try:
        while len(records) < min_iterations or now + last < deadline:
            records.append(iterate(workload, clock, tracer))
            last, now = time.perf_counter() - now, time.perf_counter()
    finally:
        patches.restore()
    return records


def iterate(workload, clock, tracer):
    """One untimed build and one timed call.

    Its own frame, so that nothing of an iteration stays alive into the
    next one.  The simulators hold reference cycles, so the previous
    iteration is collected here, untimed: otherwise it would inflate the
    peak resident set and be collected inside the next timed call.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        prepared = workload.prepare()
        clock.start()
        try:
            result = workload.execute(prepared)
        finally:
            wall, nominal = clock.stop()
    except Exception:  # a failing run is a result, not a crash
        workload.note(traceback.format_exc(limit=3))
        return {"wall": None, "nominal": None, "outcome": None}
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"wall": wall, "nominal": nominal,
              "outcome": workload.outcome(result)}
    if tracer is not None:
        record["layers"] = metrics.layer_metrics(
            tracer.span_totals(), tracer.extras, workload.body_seconds)
        record["members"] = tracer.member_seconds()
    return record


def check(workload, records):
    """``(attempted, failed)`` over the iteration records."""
    attempted = failed = 0
    for record in records:
        attempted += workload.units
        if record["outcome"] is None:
            failed += workload.units
        else:
            failed += workload.check(record["outcome"])
    return attempted, failed


def throughput(workload, records):
    """Body-seconds per nominal host second over the run's measured calls.

    Scaling each stretch of a call to the nominal host takes out the
    drift of the shared host's speed, which would otherwise set the
    figure."""
    done = [record for record in records if record["wall"]]
    nominal = sum(record["nominal"] for record in done)
    return workload.body_seconds * len(done) / nominal if done else 0.0


def setup_probe_times(args):
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if probe.returncode != 0:
            raise SetupError("set-up probe failed:\n" + probe.stderr)
        times.append(json.loads(probe.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def end_to_end(args, workload, setup_s):
    records = run_phase(workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = check(workload, records)
    setup_times = [setup_s] + setup_probe_times(args)
    values = {
        "setup_s": statistics.median(setup_times),
        "sim_s_per_s": throughput(workload, records),
        "peak_rss_mib": peak_rss_mib,
    }
    print(f"{workload.name} seed {args.seed}: {len(records)} iterations of "
          f"{workload.body_seconds:g} body-s; walls "
          + " ".join(f"{record['wall']:.4f}" for record in records
                     if record["wall"])
          + "; slowdowns "
          + " ".join(f"{record['wall'] / record['nominal']:.3f}"
                     for record in records if record["wall"])
          + "; set-up samples "
          + " ".join(f"{value:.4f}" for value in setup_times))
    return attempted, failed, values, []


def traced(args, workload):
    untraced = run_phase(workload, args.seconds / 2.0)
    tracer = tracing.Tracer()
    traced_records = run_phase(workload, args.seconds / 2.0, tracer,
                               MIN_TRACED_ITERATIONS)
    attempted, failed = check(workload, untraced + traced_records)
    problems = []
    layers = [record["layers"] for record in traced_records
              if "layers" in record]
    if not layers:
        return attempted, failed, {}, ["no traced iteration completed"]
    values = {}
    unstable = []
    for name, unit, _ in metrics.PER_LAYER:
        if name not in layers[0]:
            continue
        series = [layer[name] for layer in layers]
        if name in metrics.EXACT_COUNTS:
            values[name] = series[0]
            if any(value != series[0] for value in series):
                unstable.append(name)
        else:
            values[name] = statistics.median(series)
    members = [sample for record in traced_records
               for sample in record.get("members", ())]
    values["cohort.member_p50_ms"], values["cohort.member_p95_ms"] = \
        metrics.tail_percentiles(members)
    traced_walls = [r["wall"] for r in traced_records if r["wall"]]
    plain_walls = [r["wall"] for r in untraced if r["wall"]]
    values["trace.overhead"] = (statistics.median(traced_walls)
                                / statistics.median(plain_walls) - 1.0
                                if traced_walls and plain_walls else 0.0)
    values["failed_frac"] = failed / attempted
    for layer, (home, counts) in metrics.HOMES.items():
        if home == workload.name and not any(values[c] for c in counts):
            problems.append(f"layer {layer} recorded zero calls on its home "
                            f"workload {home}: a wrapper is misplaced")
    exact = [name for name in metrics.EXACT_COUNTS if name not in unstable]
    print(f"{workload.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_records)} traced iterations; "
          f"{len(exact)} counts repeat exactly"
          + (f", unstable: {', '.join(unstable)}" if unstable else ""))
    write_trace(args, tracer, layers, exact, unstable)
    return attempted, failed, values, problems


def write_trace(args, tracer, layers, exact, unstable):
    """Keep the last traced iteration's spans and the per-iteration metrics."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(f"{stem}.npz")
    Path(f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "iterations": layers,
        "exact_counts": exact,
        "unstable_counts": unstable,
    }, indent=1))


def run_all(args):
    """Run every workload, each in its own process, and print its metrics."""
    correct = True
    attempted = failed = 0
    combined = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   timeout=600, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, and print the set-up time")
    parser.add_argument("--inject", metavar="SPAN=MICROSECONDS",
                        help="busy-wait before every call of one layer "
                             "function (sensitivity dry run only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]()
    try:
        setup_s = setup(workload, args.seed)
    except (SetupError, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    patches = tracing.Patches()
    if args.inject:
        span, _, micros = args.inject.partition("=")
        try:
            tracing.install_delay(patches, span, float(micros) * 1e-6)
        except ValueError as error:
            print(f"error: --inject: {error}", file=sys.stderr)
            return 2
    try:
        if args.trace:
            attempted, failed, values, problems = traced(args, workload)
        else:
            attempted, failed, values, problems = end_to_end(
                args, workload, setup_s)
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        patches.restore()
    for message in workload.messages + problems:
        print(f"check: {message}")
    width = max(len(name) for name in values) if values else 0
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:.6g} {metrics.UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
