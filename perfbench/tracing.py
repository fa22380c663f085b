"""Outside-in tracing of the simulator's layers.

The benchmark never edits the program it measures.  Instead it wraps the
public functions of each layer from outside, on the stock class or in the
namespace of the module that calls them, and records one span per call:
``(name, parent, start, end)``.  The spans of one workload iteration stay
in memory (flat ``array`` columns, about 24 bytes a span) and are reduced
to per-layer metrics when the iteration ends; the last iteration's spans
are written to disk when the run ends.

Rules the wrappers follow, so that a traced run executes the same program
as an untraced one:

* Patch the attribute on the stock class, or in the module namespace the
  caller looks the name up in (``repro.cohort.engine`` imports
  ``evaluate_members`` and ``encode_shard`` by name).  Never subclass a
  policy: the kernel picks its inlined paths with exact ``type(...) is``
  checks.  Never register bus callbacks: extra callbacks move the kernel
  onto its method path.
* Install before ``run``: the kernel hoists bound methods (for example
  ``policy.next_grant``) when it enters.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.  Every ``*.s`` metric is a self time, except
``simulator.run.s``, which is the whole run span (``simulator.self_s`` is
its self time).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

#: ``(span name, module, class or None, attribute)``.  ``None`` patches a
#: module-level name at its call site.
TARGETS = (
    ("simulator.run", "repro.netsim.simulator", "BodyNetworkSimulator", "run"),
    ("arbitration.fifo", "repro.netsim.arbitration", "FIFOArbitration",
     "next_grant"),
    ("arbitration.tdma", "repro.netsim.arbitration", "TDMAArbitration",
     "next_grant"),
    ("arbitration.polling", "repro.netsim.arbitration",
     "HubPollingArbitration", "next_grant"),
    ("reliability.draw_erasure", "repro.netsim.reliability",
     "LinkReliability", "draw_erasure"),
    ("events.schedule_at", "repro.netsim.events", "EventQueue", "schedule_at"),
    ("events.step", "repro.netsim.events", "EventQueue", "step"),
    ("control.evaluate_cadence", "repro.control.runtime", "ControllerRuntime",
     "evaluate_cadence"),
    ("control.apply", "repro.control.runtime", "ControllerRuntime", "apply"),
    ("environment.interference_schedule", "repro.netsim.environment",
     "RFEnvironment", "interference_schedule"),
    ("ledger.post", "repro.energy.ledger", "EnergyLedger", "post"),
    ("ledger.post_fast", "repro.energy.ledger", "EnergyLedger", "post_fast"),
    ("ledger.post_power", "repro.energy.ledger", "EnergyLedger", "post_power"),
    ("ledger.post_interval", "repro.energy.ledger", "EnergyLedger",
     "post_interval"),
    ("energy_runtime.advance", "repro.energy.runtime", "NodeEnergyState",
     "advance"),
    ("energy_runtime.drain", "repro.energy.runtime", "NodeEnergyState",
     "drain"),
    ("battery.drain", "repro.energy.battery", "Battery", "drain"),
    ("battery.charge", "repro.energy.battery", "Battery", "charge"),
    ("battery.run", "repro.energy.battery", "Battery", "run"),
    ("stats.latency_merge", "repro.netsim.stats", "LatencyAccumulator",
     "merge"),
    ("sketch.add", "repro.cohort.sketch", "QuantileSketch", "add"),
    ("sketch.add_repeated", "repro.cohort.sketch", "QuantileSketch",
     "add_repeated"),
    ("sketch.merge", "repro.cohort.sketch", "QuantileSketch", "merge"),
    ("macrotick.try_leap", "repro.netsim.macrotick", "MacroTickEngine",
     "try_leap"),
    ("scenarios.build", "repro.scenarios.spec", "ScenarioSpec", "build"),
    ("cohort_spec.member", "repro.cohort.spec", "CohortSpec", "member"),
    ("analytic.evaluate_members", "repro.cohort.engine", None,
     "evaluate_members"),
    ("aggregate.add", "repro.cohort.aggregate", "CohortAccumulator", "add"),
    ("aggregate.merge_encoded", "repro.cohort.aggregate", "CohortAccumulator",
     "merge_encoded"),
    ("codec.encode", "repro.cohort.engine", None, "encode_shard"),
    ("codec.decode", "repro.cohort.codec", None, "decode_shard"),
)

SPAN_NAMES = tuple(target[0] for target in TARGETS)


def _erasure(extras, args, result):
    if result:
        extras["reliability.erasures"] += 1


def _leap(extras, args, result):
    if result is not None:
        extras["macrotick.leaps"] += 1
        extras["macrotick.leapt_s"] += result - args[1]


def _epochs(extras, args, result):
    extras["environment.epochs"] += len(result)


def _analytic_members(extras, args, result):
    extras["analytic.members"] += len(args[0])


def _encoded_bytes(extras, args, result):
    extras["codec.encode.bytes"] += len(result)


#: Result hooks: counts a layer produces besides its calls.
HOOKS = {
    "reliability.draw_erasure": _erasure,
    "macrotick.try_leap": _leap,
    "environment.interference_schedule": _epochs,
    "analytic.evaluate_members": _analytic_members,
    "codec.encode": _encoded_bytes,
}

EXTRA_COUNTS = ("reliability.erasures", "macrotick.leaps",
                "macrotick.leapt_s", "environment.epochs",
                "analytic.members", "codec.encode.bytes")


def _owner(module_name, class_name):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attribute, make_wrapper):
        """Swap ``owner.attribute`` for ``make_wrapper(original)``."""
        # Read the raw attribute so the original is restored unchanged.
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        setattr(owner, attribute, make_wrapper(original))
        self._undo.append((owner, attribute, original))

    def restore(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class Tracer:
    """Span recorder for the wrapped layer functions."""

    def __init__(self):
        self.names = array("h")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.extras = dict.fromkeys(EXTRA_COUNTS, 0)
        self._patches = Patches()

    def reset(self):
        """Drop the recorded spans and counts (in place: wrappers alias them)."""
        del self.names[:]
        del self.parents[:]
        del self.starts[:]
        del self.ends[:]
        self.stack[:] = [-1]
        for key in self.extras:
            self.extras[key] = 0

    def install(self):
        for name_id, (name, module_name, class_name, attribute) in \
                enumerate(TARGETS):
            self._patches.replace(
                _owner(module_name, class_name), attribute,
                lambda original, name_id=name_id, name=name:
                self._wrap(name_id, original, HOOKS.get(name)))

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, name_id, original, hook):
        names_append = self.names.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        starts = self.starts
        ends = self.ends
        stack = self.stack
        extras = self.extras
        clock = time.perf_counter

        @functools.wraps(original)
        def span(*args, **kwargs):
            index = len(starts)
            names_append(name_id)
            parents_append(stack[-1])
            ends_append(0.0)
            stack.append(index)
            starts_append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(extras, args, result)
            return result

        return span

    # -- reduction ---------------------------------------------------------

    def span_totals(self):
        """Per span name: ``(calls, inclusive seconds, self seconds)``."""
        count = len(self.starts)
        child = [0.0] * count
        durations = [0.0] * count
        starts = self.starts
        ends = self.ends
        parents = self.parents
        for index in range(count):
            duration = ends[index] - starts[index]
            durations[index] = duration
            parent = parents[index]
            if parent >= 0:
                child[parent] += duration
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        names = self.names
        for index in range(count):
            entry = totals[SPAN_NAMES[names[index]]]
            entry[0] += 1
            entry[1] += durations[index]
            entry[2] += durations[index] - child[index]
        return {name: tuple(entry) for name, entry in totals.items()}

    def member_seconds(self):
        """Build-plus-run wall time of each top-level member execution.

        A cohort member is one ``ScenarioSpec.build`` followed by one
        ``BodyNetworkSimulator.run``; both are top-level spans (their
        callers inside the cohort engine are not wrapped).
        """
        build_id = SPAN_NAMES.index("scenarios.build")
        run_id = SPAN_NAMES.index("simulator.run")
        samples = []
        pending = None
        for index in range(len(self.starts)):
            if self.parents[index] != -1:
                continue
            name = self.names[index]
            duration = self.ends[index] - self.starts[index]
            if name == build_id:
                pending = duration
            elif name == run_id and pending is not None:
                samples.append(pending + duration)
                pending = None
        return samples

    def write(self, path):
        """Write the recorded spans as a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int16),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def install_delay(patches, span_name, seconds):
    """Busy-wait *seconds* before every call of the function *span_name*.

    The sensitivity dry run uses this to slow exactly one layer and show
    which workloads resolve the change.
    """
    for name, module_name, class_name, attribute in TARGETS:
        if name == span_name:
            break
    else:
        raise ValueError(f"unknown span {span_name!r} "
                         f"(known: {', '.join(SPAN_NAMES)})")
    clock = time.perf_counter

    def make(original):
        @functools.wraps(original)
        def delayed(*args, **kwargs):
            until = clock() + seconds
            while clock() < until:
                pass
            return original(*args, **kwargs)
        return delayed

    patches.replace(_owner(module_name, class_name), attribute, make)
