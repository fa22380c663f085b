"""Metric definitions: names, units, directions and the layer home table.

``BENCHMARK.json`` at the repository root repeats the end-to-end and
per-layer tables below; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

import statistics

#: ``(name, unit, better)`` of the metrics a user of the simulator sees,
#: measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sim_s_per_s", "body-s/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics of a traced run.
PER_LAYER = (
    ("simulator.run.calls", "count", "lower"),
    ("simulator.run.s", "s", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("arbitration.fifo.calls", "count", "lower"),
    ("arbitration.tdma.calls", "count", "lower"),
    ("arbitration.polling.calls", "count", "lower"),
    ("arbitration.s", "s", "lower"),
    ("reliability.draw_erasure.calls", "count", "lower"),
    ("reliability.erasures", "count", "lower"),
    ("reliability.s", "s", "lower"),
    ("events.schedule_at.calls", "count", "lower"),
    ("events.step.calls", "count", "lower"),
    ("events.s", "s", "lower"),
    ("control.evaluate_cadence.calls", "count", "lower"),
    ("control.apply.calls", "count", "lower"),
    ("control.s", "s", "lower"),
    ("environment.interference_schedule.s", "s", "lower"),
    ("environment.epochs", "count", "lower"),
    ("ledger.post.calls", "count", "lower"),
    ("ledger.post_fast.calls", "count", "lower"),
    ("ledger.post_power.calls", "count", "lower"),
    ("ledger.post_interval.calls", "count", "lower"),
    ("ledger.s", "s", "lower"),
    ("energy_runtime.advance.calls", "count", "lower"),
    ("energy_runtime.drain.calls", "count", "lower"),
    ("energy_runtime.s", "s", "lower"),
    ("battery.calls", "count", "lower"),
    ("battery.s", "s", "lower"),
    ("stats.latency_merge.calls", "count", "lower"),
    ("stats.latency_merge.s", "s", "lower"),
    ("sketch.add.calls", "count", "lower"),
    ("sketch.merge.calls", "count", "lower"),
    ("sketch.s", "s", "lower"),
    ("macrotick.try_leap.calls", "count", "lower"),
    ("macrotick.leaps", "count", "higher"),
    ("macrotick.leap_ratio", "fraction", "higher"),
    ("macrotick.leapt_share", "fraction", "higher"),
    ("macrotick.s", "s", "lower"),
    ("scenarios.build.calls", "count", "lower"),
    ("scenarios.build.s", "s", "lower"),
    ("cohort_spec.members", "count", "higher"),
    ("cohort_spec.members.s", "s", "lower"),
    ("analytic.evaluate_members.calls", "count", "lower"),
    ("analytic.members", "count", "higher"),
    ("analytic.s", "s", "lower"),
    ("aggregate.add.calls", "count", "lower"),
    ("aggregate.merge_encoded.s", "s", "lower"),
    ("codec.encode.calls", "count", "lower"),
    ("codec.encode.bytes", "bytes", "lower"),
    ("codec.encode.s", "s", "lower"),
    ("codec.decode.s", "s", "lower"),
    ("cohort.member_p50_ms", "ms", "lower"),
    ("cohort.member_p95_ms", "ms", "lower"),
    ("trace.overhead", "fraction", "lower"),
    ("failed_frac", "fraction", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: Counts the program does not repeat for a fixed seed: every shard frame
#: carries its own wall-clock ``elapsed_seconds``, so the zlib-compressed
#: frame size moves by a few bytes from run to run.
VARYING_COUNTS = ("codec.encode.bytes",)

#: Counts that must repeat exactly for a fixed seed; only these may back
#: a count-based claim.
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER
                     if unit in ("count", "bytes")
                     and name not in VARYING_COUNTS)

#: Layer -> (home workload, count metrics of which at least one must be
#: non-zero there).  A zero on the home workload means a wrapper sits on
#: the wrong namespace.
HOMES = {
    "netsim.simulator": ("dense_hour", ("simulator.run.calls",)),
    "netsim.arbitration": ("cohort_hybrid", (
        "arbitration.fifo.calls", "arbitration.tdma.calls",
        "arbitration.polling.calls")),
    "netsim.reliability": ("commuter_train",
                           ("reliability.draw_erasure.calls",)),
    "netsim.events": ("commuter_train", ("events.schedule_at.calls",
                                         "events.step.calls")),
    "control": ("commuter_train", ("control.evaluate_cadence.calls",
                                   "control.apply.calls")),
    "netsim.environment": ("commuter_train", ("environment.epochs",)),
    "energy.ledger": ("battery_hour", (
        "ledger.post.calls", "ledger.post_fast.calls",
        "ledger.post_power.calls", "ledger.post_interval.calls")),
    "energy.runtime": ("battery_hour", ("energy_runtime.advance.calls",
                                        "energy_runtime.drain.calls")),
    "energy.battery": ("battery_hour", ("battery.calls",)),
    "netsim.stats": ("cohort_hybrid", ("stats.latency_merge.calls",)),
    "cohort.sketch": ("cohort_hybrid", ("sketch.add.calls",
                                        "sketch.merge.calls")),
    "netsim.macrotick": ("cohort_hybrid", ("macrotick.try_leap.calls",)),
    "scenarios.spec": ("cohort_hybrid", ("scenarios.build.calls",)),
    "cohort.spec": ("cohort_analytic", ("cohort_spec.members",)),
    "cohort.analytic": ("cohort_analytic",
                        ("analytic.evaluate_members.calls",)),
    "cohort.aggregate+codec": ("cohort_analytic", ("aggregate.add.calls",
                                                   "codec.encode.calls")),
}

#: A percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def layer_metrics(totals, extras, body_seconds):
    """Per-layer metrics of one traced iteration.

    *totals* maps a span name to ``(calls, inclusive s, self s)`` (see
    :meth:`tracing.Tracer.span_totals`); *extras* holds the result-hook
    counts.
    """
    def calls(*names):
        return sum(totals[name][0] for name in names)

    def own(*names):
        return sum(totals[name][2] for name in names)

    tries = calls("macrotick.try_leap")
    leaps = extras["macrotick.leaps"]
    return {
        "simulator.run.calls": calls("simulator.run"),
        "simulator.run.s": totals["simulator.run"][1],
        "simulator.self_s": own("simulator.run"),
        "arbitration.fifo.calls": calls("arbitration.fifo"),
        "arbitration.tdma.calls": calls("arbitration.tdma"),
        "arbitration.polling.calls": calls("arbitration.polling"),
        "arbitration.s": own("arbitration.fifo", "arbitration.tdma",
                             "arbitration.polling"),
        "reliability.draw_erasure.calls": calls("reliability.draw_erasure"),
        "reliability.erasures": extras["reliability.erasures"],
        "reliability.s": own("reliability.draw_erasure"),
        "events.schedule_at.calls": calls("events.schedule_at"),
        "events.step.calls": calls("events.step"),
        "events.s": own("events.schedule_at", "events.step"),
        "control.evaluate_cadence.calls": calls("control.evaluate_cadence"),
        "control.apply.calls": calls("control.apply"),
        "control.s": own("control.evaluate_cadence", "control.apply"),
        "environment.interference_schedule.s": own(
            "environment.interference_schedule"),
        "environment.epochs": extras["environment.epochs"],
        "ledger.post.calls": calls("ledger.post"),
        "ledger.post_fast.calls": calls("ledger.post_fast"),
        "ledger.post_power.calls": calls("ledger.post_power"),
        "ledger.post_interval.calls": calls("ledger.post_interval"),
        "ledger.s": own("ledger.post", "ledger.post_fast",
                        "ledger.post_power", "ledger.post_interval"),
        "energy_runtime.advance.calls": calls("energy_runtime.advance"),
        "energy_runtime.drain.calls": calls("energy_runtime.drain"),
        "energy_runtime.s": own("energy_runtime.advance",
                                "energy_runtime.drain"),
        "battery.calls": calls("battery.drain", "battery.charge",
                               "battery.run"),
        "battery.s": own("battery.drain", "battery.charge", "battery.run"),
        "stats.latency_merge.calls": calls("stats.latency_merge"),
        "stats.latency_merge.s": own("stats.latency_merge"),
        "sketch.add.calls": calls("sketch.add"),
        "sketch.merge.calls": calls("sketch.merge"),
        "sketch.s": own("sketch.add", "sketch.add_repeated", "sketch.merge"),
        "macrotick.try_leap.calls": tries,
        "macrotick.leaps": leaps,
        "macrotick.leap_ratio": leaps / tries if tries else 0.0,
        "macrotick.leapt_share": extras["macrotick.leapt_s"] / body_seconds,
        "macrotick.s": own("macrotick.try_leap"),
        "scenarios.build.calls": calls("scenarios.build"),
        "scenarios.build.s": own("scenarios.build"),
        "cohort_spec.members": calls("cohort_spec.member"),
        "cohort_spec.members.s": own("cohort_spec.member"),
        "analytic.evaluate_members.calls": calls("analytic.evaluate_members"),
        "analytic.members": extras["analytic.members"],
        "analytic.s": own("analytic.evaluate_members"),
        "aggregate.add.calls": calls("aggregate.add"),
        "aggregate.merge_encoded.s": own("aggregate.merge_encoded"),
        "codec.encode.calls": calls("codec.encode"),
        "codec.encode.bytes": extras["codec.encode.bytes"],
        "codec.encode.s": own("codec.encode"),
        "codec.decode.s": own("codec.decode"),
    }


def tail_percentiles(samples_s):
    """``(p50 ms, p95 ms)`` of member wall times, or zeros when fewer
    than :data:`TAIL_SAMPLES` samples would lie beyond the p95."""
    if len(samples_s) * 0.05 < TAIL_SAMPLES:
        return 0.0, 0.0
    cuts = statistics.quantiles(samples_s, n=100, method="inclusive")
    return statistics.median(samples_s) * 1e3, cuts[94] * 1e3
