"""Latency-statistics and quantile-sketch layer microbenchmarks.

Three operations carry the cohort engine's sketch cost:

* **Window spill** — the 65,537th sample of a ``backend="sketch"``
  :class:`~repro.netsim.stats.LatencyAccumulator` folds the whole exact
  window into a fresh :class:`~repro.cohort.sketch.QuantileSketch`.
* **Exact-into-spilled merge** — a 50k-sample exact window merged into
  an accumulator that has already spilled streams every sample into its
  sketch.
* **Shard merge** — 20 shard sketches folded in shard order, the shape
  of a 20-shard cohort's final aggregation.

The asserts check shapes and that each batched path leaves exactly the
sketch state a per-sample ``add`` loop would; there is no wall-time
floor (pytest-benchmark records the timings).
"""

from __future__ import annotations

import numpy as np

from conftest import emit

from repro.cohort.sketch import QuantileSketch
from repro.netsim.stats import DEFAULT_EXACT_CAPACITY, LatencyAccumulator

SHARDS = 20
SHARD_SAMPLES = 50_000


def add_loop(sketch: QuantileSketch, values) -> QuantileSketch:
    for value in values:
        sketch.add(value)
    return sketch


def test_bench_sketch_window_spill(benchmark):
    samples = np.random.default_rng(31).lognormal(
        -7.0, 1.0, DEFAULT_EXACT_CAPACITY + 1).tolist()
    window = LatencyAccumulator(backend="sketch")
    for value in samples[:-1]:
        window.add(value)
    state = window.to_state()

    def fresh():
        return (LatencyAccumulator.from_state(state),), {}

    def spill(accumulator):
        accumulator.add(samples[-1])
        return accumulator

    spilled = benchmark.pedantic(spill, setup=fresh, rounds=5, iterations=1)

    emit("latency accumulator — 65,537-sample window spill", [{
        "samples": spilled.count,
        "retained": spilled._sketch.retained,
    }])
    assert not spilled.is_exact
    assert spilled.count == DEFAULT_EXACT_CAPACITY + 1
    assert (spilled._sketch.to_state()
            == add_loop(QuantileSketch(), samples).to_state())


def test_bench_sketch_exact_window_into_spilled(benchmark):
    rng = np.random.default_rng(32)
    streamed = rng.lognormal(-7.0, 1.0, 70_000).tolist()
    window = rng.lognormal(-6.5, 1.0, 50_000).tolist()
    spilled = LatencyAccumulator(backend="sketch")
    for value in streamed:
        spilled.add(value)
    spilled_state = spilled.to_state()
    exact = LatencyAccumulator(backend="sketch")
    for value in window:
        exact.add(value)

    def fresh():
        return (LatencyAccumulator.from_state(spilled_state),), {}

    def merge(accumulator):
        accumulator.merge(exact)
        return accumulator

    merged = benchmark.pedantic(merge, setup=fresh, rounds=5, iterations=1)

    emit("latency accumulator — 50k exact window into a spilled one", [{
        "samples": merged.count,
        "retained": merged._sketch.retained,
    }])
    assert exact.is_exact
    assert merged.count == len(streamed) + len(window)
    reference = QuantileSketch.from_state(spilled_state["sketch"])
    assert merged._sketch.to_state() == add_loop(reference,
                                                 window).to_state()


def test_bench_sketch_shard_merge(benchmark):
    rng = np.random.default_rng(33)
    shards = []
    for _ in range(SHARDS):
        shard = QuantileSketch()
        shard.extend(rng.lognormal(0.0, 1.0, SHARD_SAMPLES))
        shards.append(shard)

    def merge_all():
        merged = QuantileSketch()
        for shard in shards:
            merged.merge(shard)
        return merged

    merged = benchmark.pedantic(merge_all, rounds=5, iterations=1)

    emit("quantile sketch — 20 shard sketches merged in order", [{
        "shards": SHARDS,
        "samples": merged.count,
        "retained": merged.retained,
        "p99": round(merged.quantile(0.99), 3),
    }])
    assert merged.count == SHARDS * SHARD_SAMPLES
    assert merged.retained <= 4 * merged.k
    assert merged.to_state() == merge_all().to_state()
