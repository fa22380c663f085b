"""Reliability-layer benchmarks: the lossy DES path under sustained load.

Two timings guard the erasure/ARQ machinery:

* a 1-hour posture-cycling lossy run — ``commute_walk`` stretched to an
  hour, so the body cycles sitting → walking → standing → sitting with
  posture-swapped erasure probabilities while stop-and-wait ARQ recovers
  every corrupted frame.  Alongside the timing it asserts the
  acceptance contract: flat memory (streaming ledgers retain zero
  entries, the latency accumulator spills and holds no raw samples) and
  *bounded retransmission overhead* (the attempt factor stays near the
  closed-form expectation instead of snowballing).
* E16 ``reliability`` — the link-margin sweep (six lossy DES runs from
  96 % erasures down to a clean link, each cross-checked against the
  truncated-geometric closed forms).
"""

from __future__ import annotations

from conftest import emit

from repro import units
from repro.experiments import reliability
from repro.scenarios import get_scenario


def run_commute_hour():
    spec = get_scenario("commute_walk")
    simulator = spec.build(seed=0, duration_seconds=units.hours(1.0),
                           latency_exact_capacity=4096)
    result = simulator.run(units.hours(1.0))
    return spec, simulator, result


def test_bench_commute_walk_lossy_hour(benchmark):
    spec, simulator, result = benchmark.pedantic(run_commute_hour, rounds=1,
                                                 iterations=1)

    emit("reliability — commute_walk, 1 simulated lossy hour",
         [{"delivered": result.delivered_packets,
           "erased": result.erased_attempts,
           "retx": result.retransmissions,
           "lost": result.lost_packets,
           "attempts_per_pkt": result.attempts_per_delivered,
           "retx_energy_uj": result.retransmission_energy_joules * 1e6,
           "mean_latency_ms": result.mean_latency_seconds * 1e3}])

    # The posture cycle actually bites: erasures happened and ARQ
    # recovered essentially all of them.
    assert result.erased_attempts > 100
    assert result.retransmissions > 100
    assert result.delivered_fraction > 0.99
    # Bounded retransmission overhead: the sitting segments erase ~18 %
    # of frames, so the whole-run attempt factor must sit well under the
    # retry limit's worst case — near the time-averaged closed form.
    profile = spec.reliability_profile()
    expected_attempts = max(attempts for _, attempts in profile.values())
    assert 1.0 < result.attempts_per_delivered < expected_attempts + 0.1
    # Flat memory over the lossy hour: the latency accumulator spilled
    # out of its exact window.
    accumulator = simulator.bus.stats.latency
    assert not accumulator.is_exact
    assert accumulator.retained_samples == 0
    assert accumulator.count == result.delivered_packets


def run_reliability_experiment():
    return reliability.run()


def test_bench_reliability_margin_sweep(benchmark):
    result = benchmark.pedantic(run_reliability_experiment, rounds=1,
                                iterations=1)

    emit("E16 — link margin vs delivery and retransmission energy",
         result.rows())

    # The experiment's own acceptance bound: sampled delivery tracks the
    # closed form across the sweep, and margin buys delivery.
    assert result.max_delivery_abs_error() < 0.05
    fractions = result.delivered_fractions()
    assert fractions[0] < 0.3 and fractions[-1] == 1.0
