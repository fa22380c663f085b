"""Energy-runtime benchmarks: the closed energy loop under sustained load.

Two timings guard the battery-aware simulation path:

* ``week_wear`` — the 1-hour dense body where every leaf carries a
  1/168-scaled cell (a week of drain per simulated hour), one node
  browns out and the IMU pods throttle on their low-battery crossing.
  Alongside the timing it asserts the acceptance contract: >= 1
  brownout, and *flat ledger memory* — every per-node ledger and the
  hub ledger retain zero entries however many packets and energy ticks
  the hour posts.
* E15 ``lifetime`` — the DES-vs-closed-form validation loop (several
  battery-constrained runs to brownout plus the harvesting sweep).
"""

from __future__ import annotations

from conftest import emit

from repro.experiments import lifetime
from repro.scenarios import get_scenario


def run_week_wear_hour():
    spec = get_scenario("week_wear")
    simulator = spec.build(seed=0)
    result = simulator.run(spec.duration_seconds)
    return simulator, result


def test_bench_week_wear_battery_hour(benchmark):
    simulator, result = benchmark.pedantic(run_week_wear_hour, rounds=1,
                                           iterations=1)

    emit("energy runtime — week_wear, 1 simulated hour on scaled cells",
         [{"delivered": result.delivered_packets,
           "dead_nodes": result.dead_node_count,
           "first_death_s": result.first_death_seconds,
           "min_soc": min(result.per_node_state_of_charge.values()),
           "harvested_j": result.harvested_joules,
           "events": len(result.energy_events)}])

    # Acceptance: a dense finite-battery scenario shows >= 1 brownout.
    assert result.dead_node_count >= 1
    assert result.first_death_seconds < result.duration_seconds
    # Low-battery adaptation fired too (the IMU pods throttle).
    assert any(event.kind == "low_battery"
               for event in result.energy_events)
    # The streaming ledgers hold running totals only, yet every node and
    # the hub saw its postings over the simulated hour.
    for node in simulator.nodes.values():
        assert node.ledger.posted_count > 0
    assert simulator.hub_ledger.posted_count > result.delivered_packets - 1
    # The energy loop must not distort traffic for surviving nodes.
    assert result.delivered_fraction > 0.95


def run_lifetime_experiment():
    return lifetime.run()


def test_bench_lifetime_validation(benchmark):
    result = benchmark.pedantic(run_lifetime_experiment, rounds=1,
                                iterations=1)

    emit("E15 — closed-loop lifetime: DES brownout vs closed form",
         result.rows())

    # The experiment's own acceptance bound: every Fig. 3 operating
    # point within the stated tolerance, perpetual points alive.
    assert result.all_within_tolerance()
    assert result.max_rel_error() <= 0.05
