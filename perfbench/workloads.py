"""The five benchmark workloads and their result checks.

Each workload drives the program only through its public entry points
(``ScenarioSpec.build``, ``EnvironmentSpec.build``,
``BodyNetworkSimulator.run``, ``RFEnvironment.run`` and ``run_cohort``).
A workload has three phases:

* ``setup(seed)`` — everything up to the first measured call: spec lookup
  and the first build (``import repro`` happens just before it);
* ``prepare()`` / ``execute(prepared)`` — one iteration: an untimed build,
  then the timed call that simulates ``body_seconds`` body-seconds;
* ``check(outcome)`` — compares one iteration's result with the pinned
  reference of this seed (``pins.json``) or, for a seed without a pin,
  with the first iteration of the run and the workload's invariants.

Nothing here imports ``repro`` at module level, so that the harness can
time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Cohort analytic validation bounds (the cohort engine's benchmark and
#: tests): leaf-power relative error, delivered-fraction absolute error,
#: mean-latency factor.
ANALYTIC_LEAF_POWER_REL = 0.10
ANALYTIC_DELIVERED_ABS = 0.05
ANALYTIC_LATENCY_FACTOR = 3.0

#: Hybrid-vs-exact envelope documented in ``repro.netsim.macrotick``.
HYBRID_POWER_REL = 0.05
HYBRID_DELIVERED_ABS = 0.05
HYBRID_MEAN_LATENCY_FACTOR = 2.5
HYBRID_P99_LATENCY_FACTOR = 3.0
HYBRID_UTILIZATION_ABS = 0.02

HOUR = 3600.0


def load_pins():
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def result_digest(result):
    """Short SHA-256 of one ``SimulationResult.to_dict()``."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _factor(a, b):
    """How many times apart two positive values are (1.0 when equal)."""
    if a == b:
        return 1.0
    if a <= 0.0 or b <= 0.0:
        return math.inf
    return max(a / b, b / a)


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b else math.inf


class Outcome:
    """One iteration's result, reduced to what its check needs."""

    def __init__(self, value, results=(), validations=()):
        self.value = value              # body digests or cohort aggregates
        self.results = results          # SimulationResults (DES workloads)
        self.validations = validations  # (index, power, delivered, latency)


class Workload:
    name = ""
    why = ""
    units = 1                   # bodies or members one iteration attempts
    body_seconds = HOUR         # simulated body-seconds of one iteration

    def __init__(self):
        self.seed = 0
        self.pin = None
        self.first = None
        self.messages = []

    def setup(self, seed):
        self.seed = seed
        self.pin = load_pins().get(self.name, {}).get(str(seed))
        self._setup()

    def note(self, message):
        if len(self.messages) < 20:
            self.messages.append(message)

    def failures(self, checks, what):
        """Report each ``(name, error, bound)`` whose error exceeds it."""
        bad = False
        for name, error, bound in checks:
            if not error <= bound:
                self.note(f"{what} {name}: error {error:.4g} > {bound}")
                bad = True
        return bad


# -- exact discrete-event workloads -----------------------------------------

class ExactWorkload(Workload):
    """Bit-identity check: one digest per body, compared with the pin."""

    def _setup(self):
        self._prepared = self._build()

    def prepare(self):
        prepared, self._prepared = self._prepared, None
        return prepared if prepared is not None else self._build()

    def outcome(self, result):
        bodies = self._bodies(result)
        return Outcome([result_digest(body) for body in bodies], bodies)

    def reference(self):
        """The digests :mod:`pin` stores for this seed."""
        return self.outcome(self.execute(self.prepare())).value

    def check(self, outcome):
        """Number of failed bodies in one iteration."""
        digests = outcome.value
        expected = self.pin
        if expected is None:
            if self.first is None:
                self.first = digests
            expected = self.first
        failed = abs(len(digests) - len(expected))
        for index, (got, want) in enumerate(zip(digests, expected)):
            if got != want:
                failed += 1
                self.note(f"body {index}: digest {got} != {want}")
        for index, result in enumerate(outcome.results):
            problems = self.invariant_problems(result)
            if problems:
                failed += 1
                self.note(f"body {index}: {', '.join(problems)}")
        return min(failed, self.units)

    @staticmethod
    def invariant_problems(result):
        problems = []
        if not 0 <= result.delivered_packets <= result.offered_packets:
            problems.append("delivered outside [0, offered]")
        if not 0.0 <= result.bus_utilization <= 1.0 + 1e-9:
            problems.append("utilization outside [0, 1]")
        powers = result.per_node_average_power_watts.values()
        if not all(math.isfinite(p) and p >= 0.0 for p in powers):
            problems.append("non-finite or negative node power")
        latencies = (result.mean_latency_seconds, result.p99_latency_seconds)
        if not all(math.isfinite(x) and x >= 0.0 for x in latencies):
            problems.append("non-finite or negative latency")
        return problems


class ScenarioHour(ExactWorkload):
    """One named scenario for one simulated hour on the exact kernel."""

    scenario = ""

    def _setup(self):
        from repro.scenarios import get_scenario

        self.spec = get_scenario(self.scenario)
        super()._setup()

    def _build(self):
        return self.spec.build(seed=self.seed, duration_seconds=HOUR)

    def execute(self, simulator):
        return simulator.run(HOUR)

    @staticmethod
    def _bodies(result):
        return [result]


class DenseHour(ScenarioHour):
    name = "dense_hour"
    why = ("dense_50_leaf exact hour: bare 50-node TDMA kernel with a "
           "spilling latency accumulator; home of the kernel, bypass for "
           "every other layer")
    scenario = "dense_50_leaf"


class BatteryHour(ScenarioHour):
    name = "battery_hour"
    why = ("week_wear exact hour on 1/168-scaled cells: ledger posts, "
           "battery drain, brownout and throttle; home of the energy layer")
    scenario = "week_wear"


class CommuterTrain(ExactWorkload):
    name = "commuter_train"
    why = ("12 lossy bodies with PER-backoff control for one hour: home of "
           "environment, control, ARQ erasures and the event queue")

    def _setup(self):
        from repro.scenarios import get_environment

        self.spec = get_environment("commuter_train")
        self.units = self.spec.body_count
        self.body_seconds = self.units * HOUR
        super()._setup()

    def _build(self):
        return self.spec.build(seed=self.seed, duration_seconds=HOUR)

    def execute(self, environment):
        return environment.run()

    @staticmethod
    def _bodies(result):
        return [body for _, body in result]


# -- cohort workloads ---------------------------------------------------------

def cohort_summary(result):
    """The aggregates a cohort check compares (plain JSON types)."""
    accumulator = result.accumulator
    packets = accumulator.packet_latency
    return {
        "population": accumulator.population,
        "nodes": accumulator.node_count,
        "policies": dict(sorted(accumulator.by_policy.items())),
        "dead_members": accumulator.dead_members,
        "means": {name: metric.mean
                  for name, metric in sorted(accumulator.metrics.items())},
        "packet_p99_s": packets.percentile(99.0) if packets.count else 0.0,
    }


class CohortWorkload(Workload):
    """A cohort run, checked on its aggregates; one iteration attempts
    every member."""

    member_seconds = 60.0

    def _setup(self):
        from repro.cohort import CohortSpec

        self.body_seconds = self.units * self.member_seconds
        self.spec = CohortSpec(population=self.units, seed=self.seed,
                               member_duration_seconds=self.member_seconds)

    def prepare(self):
        return self.spec

    def run_cohort(self, fast_path):
        from repro.cohort import run_cohort

        return run_cohort(self.spec, fast_path=fast_path,
                          shard_count=self.shards, parallel=1,
                          validate_stride=self.validate_stride)

    def outcome(self, result):
        return Outcome(cohort_summary(result), validations=[
            (record.index, record.leaf_power_rel_error,
             record.delivered_fraction_abs_error, record.mean_latency_factor)
            for record in result.validations])

    def aggregate_failures(self, summary, reference, what):
        """Whole-cohort failures: a repeat that differs, or aggregates
        outside the workload's envelope around *reference*."""
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            self.note("aggregates differ from the run's first iteration")
            return True
        for key in ("population", "nodes", "policies"):
            if summary[key] != reference[key]:
                self.note(f"{what} {key}: {summary[key]} != {reference[key]}")
                return True
        return self.failures(self.envelope(summary, reference), what)


class CohortAnalytic(CohortWorkload):
    name = "cohort_analytic"
    why = ("10k-member cohort on the analytic path with sampled hybrid "
           "validation: home of member sampling, analytic evaluation and "
           "the shard codec")
    units = 10_000
    shards = 8
    validate_stride = 2500

    def execute(self, spec):
        return self.run_cohort("analytic")

    def reference(self):
        """The analytic aggregates :mod:`pin` stores for this seed."""
        return cohort_summary(self.execute(self.prepare()))

    def check(self, outcome):
        """Number of failed members: every member when the aggregates
        fail, else each validated member outside the bounds."""
        reference = self.pin if self.pin is not None else outcome.value
        if self.aggregate_failures(outcome.value, reference,
                                   "pinned analytic aggregate"):
            return self.units
        expected = len(range(0, self.units, self.validate_stride))
        failed = max(expected - len(outcome.validations), 0)
        for index, power, delivered, latency in outcome.validations:
            if self.failures(((f"member {index} leaf power", power,
                               ANALYTIC_LEAF_POWER_REL),
                              (f"member {index} delivered", delivered,
                               ANALYTIC_DELIVERED_ABS),
                              (f"member {index} latency factor", latency,
                               ANALYTIC_LATENCY_FACTOR)), "validation"):
                failed += 1
        return failed

    @staticmethod
    def envelope(got, want):
        means, pinned = got["means"], want["means"]
        return (
            ("leaf_power_watts", _rel(means["leaf_power_watts"],
                                      pinned["leaf_power_watts"]),
             ANALYTIC_LEAF_POWER_REL),
            ("delivered_fraction", abs(means["delivered_fraction"]
                                       - pinned["delivered_fraction"]),
             ANALYTIC_DELIVERED_ABS),
            ("mean_latency_factor", _factor(means["mean_latency_seconds"],
                                            pinned["mean_latency_seconds"]),
             ANALYTIC_LATENCY_FACTOR),
        )


class CohortHybrid(CohortWorkload):
    name = "cohort_hybrid"
    why = ("600 sampled members on the hybrid DES: home of per-member "
           "builds, macro-tick leaps, method-path grants and sketch merges")
    units = 600
    shards = 4
    validate_stride = 0     # the DES paths ignore it

    def execute(self, spec):
        return self.run_cohort("hybrid")

    def reference(self):
        """Aggregates of the same cohort on the exact kernel."""
        return cohort_summary(self.run_cohort("des"))

    def check(self, outcome):
        """Number of failed members: all of them or none."""
        if self.pin is None:
            # No pinned exact reference for this seed: compute it (once).
            self.pin = self.reference()
        if self.aggregate_failures(outcome.value, self.pin,
                                   "hybrid vs exact"):
            return self.units
        return 0

    @staticmethod
    def envelope(got, want):
        means, exact = got["means"], want["means"]
        return (
            ("leaf_power_watts", _rel(means["leaf_power_watts"],
                                      exact["leaf_power_watts"]),
             HYBRID_POWER_REL),
            ("hub_power_watts", _rel(means["hub_power_watts"],
                                     exact["hub_power_watts"]),
             HYBRID_POWER_REL),
            ("delivered_fraction", abs(means["delivered_fraction"]
                                       - exact["delivered_fraction"]),
             HYBRID_DELIVERED_ABS),
            ("alive_fraction", abs(means["alive_fraction"]
                                   - exact["alive_fraction"]),
             HYBRID_DELIVERED_ABS),
            ("bus_utilization", abs(means["bus_utilization"]
                                    - exact["bus_utilization"]),
             HYBRID_UTILIZATION_ABS),
            ("mean_latency_factor", _factor(means["mean_latency_seconds"],
                                            exact["mean_latency_seconds"]),
             HYBRID_MEAN_LATENCY_FACTOR),
            ("p99_latency_factor", _factor(means["p99_latency_seconds"],
                                           exact["p99_latency_seconds"]),
             HYBRID_P99_LATENCY_FACTOR),
            ("packet_p99_factor", _factor(got["packet_p99_s"],
                                          want["packet_p99_s"]),
             HYBRID_P99_LATENCY_FACTOR),
        )


WORKLOADS = {workload.name: workload for workload in (
    DenseHour, BatteryHour, CommuterTrain, CohortAnalytic, CohortHybrid)}
