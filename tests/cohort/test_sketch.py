"""Tests for the deterministic KLL-style quantile sketch.

The central property: for any input stream, every percentile estimate
stays within the sketch's documented rank-error envelope (``4 / k``) of
the true normalised rank — measured with *interval* ranks, because on
tied data the point rank of an exactly-correct answer can be arbitrary
(``searchsorted`` on a constant stream puts every value at rank 0 or 1).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import QuantileSketch
from repro.errors import SimulationError

FRACTIONS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def interval_rank_error(samples: np.ndarray, estimate: float,
                        fraction: float) -> float:
    """Normalised rank error, tolerant of ties.

    An estimate that equals a tied value occupies the whole rank
    interval [searchsorted-left, searchsorted-right]; the error is its
    distance from the target fraction to the *nearest* end of that
    interval (zero whenever the target lies inside it).
    """
    ordered = np.sort(samples)
    left = np.searchsorted(ordered, estimate, side="left") / len(ordered)
    right = np.searchsorted(ordered, estimate, side="right") / len(ordered)
    return max(0.0, left - fraction, fraction - right)


def assert_within_envelope(sketch: QuantileSketch,
                           samples: np.ndarray) -> None:
    for fraction in FRACTIONS:
        estimate = sketch.quantile(fraction)
        error = interval_rank_error(samples, estimate, fraction)
        assert error <= sketch.rank_error_bound, (
            f"q{fraction}: estimate {estimate} has rank error {error:.4f} "
            f"> bound {sketch.rank_error_bound:.4f}")


class TestAccuracy:
    @pytest.mark.parametrize("make_stream", [
        lambda rng: rng.uniform(0.0, 1.0, 50_000),
        lambda rng: rng.lognormal(0.0, 2.0, 50_000),
        lambda rng: np.sort(rng.uniform(0.0, 1.0, 50_000)),
        lambda rng: np.sort(rng.uniform(0.0, 1.0, 50_000))[::-1],
        lambda rng: np.full(50_000, 3.25),
        lambda rng: np.where(rng.uniform(size=50_000) < 0.9, 0.0, 1e6),
    ], ids=["uniform", "lognormal", "sorted", "reversed", "constant",
            "zeros-and-spikes"])
    def test_streams_stay_within_envelope(self, make_stream):
        rng = np.random.default_rng(11)
        samples = make_stream(rng)
        sketch = QuantileSketch()
        for value in samples:
            sketch.add(float(value))
        assert_within_envelope(sketch, samples)

    def test_merged_shards_stay_within_envelope(self):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(0.0, 1.0, 80_000)
        merged = QuantileSketch()
        for chunk in np.array_split(samples, 8):
            shard = QuantileSketch()
            for value in chunk:
                shard.add(float(value))
            merged.merge(shard)
        assert merged.count == len(samples)
        assert_within_envelope(merged, samples)

    def test_retained_size_is_bounded(self):
        sketch = QuantileSketch()
        rng = np.random.default_rng(3)
        for value in rng.uniform(size=200_000):
            sketch.add(float(value))
        # The KLL bound: ~3k values however long the stream ran.
        assert sketch.retained <= 4 * sketch.k

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=2000))
    def test_any_finite_stream_within_envelope(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        assert_within_envelope(sketch, np.asarray(values))


class TestDeterminism:
    def test_same_stream_same_sketch(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(size=10_000)
        first, second = QuantileSketch(), QuantileSketch()
        for value in samples:
            first.add(float(value))
            second.add(float(value))
        assert first.to_state() == second.to_state()

    def test_merge_order_is_deterministic(self):
        rng = np.random.default_rng(2)
        chunks = [rng.uniform(size=5_000) for _ in range(4)]

        def merged():
            total = QuantileSketch()
            for chunk in chunks:
                shard = QuantileSketch()
                for value in chunk:
                    shard.add(float(value))
                total.merge(shard)
            return total

        assert merged().to_state() == merged().to_state()


class TestWeightedInsertion:
    def test_add_repeated_matches_repeated_add_counts(self):
        sketch = QuantileSketch()
        sketch.add_repeated(1.0, 1000)
        sketch.add_repeated(2.0, 13)
        assert sketch.count == 1013
        assert sketch.min_value == 1.0
        assert sketch.max_value == 2.0
        total_weight = sum(weight for _, weight in sketch.weighted_items())
        assert total_weight == 1013

    def test_add_repeated_percentiles(self):
        sketch = QuantileSketch()
        sketch.add_repeated(0.0, 900)
        sketch.add_repeated(100.0, 100)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(0.99) == 100.0

    def test_zero_weight_is_a_noop(self):
        sketch = QuantileSketch()
        sketch.add_repeated(5.0, 0)
        assert sketch.is_empty

    def test_negative_weight_rejected(self):
        with pytest.raises(SimulationError):
            QuantileSketch().add_repeated(1.0, -1)


class TestStateRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False, allow_infinity=False),
                    max_size=1500))
    def test_state_round_trip_is_exact(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        restored = QuantileSketch.from_state(sketch.to_state())
        assert restored.to_state() == sketch.to_state()
        if values:
            for fraction in FRACTIONS:
                assert restored.quantile(fraction) == sketch.quantile(fraction)

    def test_mismatched_state_rejected(self):
        state = QuantileSketch().to_state()
        state["flips"] = []
        with pytest.raises(SimulationError):
            QuantileSketch.from_state(state)


class TestValidation:
    def test_non_finite_values_rejected(self):
        sketch = QuantileSketch()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                sketch.add(bad)
            with pytest.raises(SimulationError):
                sketch.add_repeated(bad, 3)

    def test_empty_sketch_refuses_queries(self):
        with pytest.raises(SimulationError):
            QuantileSketch().quantile(0.5)

    def test_quantile_bounds_checked(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(SimulationError):
            sketch.quantile(1.5)
        with pytest.raises(SimulationError):
            sketch.percentile(200.0)

    def test_tiny_k_rejected(self):
        with pytest.raises(SimulationError):
            QuantileSketch(k=4)

    def test_endpoints_are_exact(self):
        sketch = QuantileSketch()
        rng = np.random.default_rng(7)
        samples = rng.uniform(size=30_000)
        for value in samples:
            sketch.add(float(value))
        assert sketch.quantile(0.0) == samples.min()
        assert sketch.quantile(1.0) == samples.max()


def feed_by_add(sketch: QuantileSketch, values) -> None:
    for value in values:
        sketch.add(float(value))


def feed_by_extend(sketch: QuantileSketch, values) -> None:
    sketch.extend(values)


def _lognormal_200k(feed):
    sketch = QuantileSketch(k=200)
    feed(sketch, np.random.default_rng(14).lognormal(0.0, 1.5, 200_000))
    return sketch


def _sorted(feed):
    sketch = QuantileSketch(k=200)
    feed(sketch, np.sort(np.random.default_rng(15).uniform(0.0, 1.0, 50_000)))
    return sketch


def _constant(feed):
    sketch = QuantileSketch(k=200)
    feed(sketch, np.full(30_000, 3.25))
    return sketch


def _add_repeated_mix(feed):
    rng = np.random.default_rng(16)
    sketch = QuantileSketch(k=200)
    for block in range(40):
        feed(sketch, rng.exponential(2.0, 700))
        sketch.add_repeated(float(rng.uniform(0.0, 10.0)), 37 * block + 1)
    return sketch


def _merge_4_shards(feed):
    rng = np.random.default_rng(17)
    merged = QuantileSketch(k=200)
    for _ in range(4):
        shard = QuantileSketch(k=200)
        feed(shard, rng.lognormal(0.0, 1.0, 25_000))
        merged.merge(shard)
    return merged


def _k8(feed):
    sketch = QuantileSketch(k=8)
    feed(sketch, np.random.default_rng(18).uniform(-5.0, 5.0, 20_000))
    return sketch


def _restored_then_continued(feed):
    rng = np.random.default_rng(19)
    sketch = QuantileSketch(k=50)
    feed(sketch, rng.normal(0.0, 1.0, 30_000))
    sketch = QuantileSketch.from_state(sketch.to_state())
    feed(sketch, rng.normal(3.0, 1.0, 30_000))
    return sketch


def state_digest(sketch: QuantileSketch) -> str:
    encoded = json.dumps(sketch.to_state(), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


#: Builder and SHA-256 of ``json.dumps(to_state(), sort_keys=True)`` of the
#: sketch it builds.  The digests pin the compaction schedule itself:
#: any change to when or how levels compact changes the retained values.
GOLDEN_STATES = {
    "lognormal-200k": (_lognormal_200k,
                       "c47ed58a3bb5d935c8dcacd1b11f4964"
                       "1f5db57beb879366057857b32805a7bf"),
    "sorted": (_sorted,
               "a9c783bb86c1beafa41644eac285db40"
               "8576f64562e082682800829ef86e5c8d"),
    "constant": (_constant,
                 "d3faeafed2988672c2ab2e99848a88fe"
                 "f7a69a94a37280c4488e6e129d67b16d"),
    "add-repeated-mix": (_add_repeated_mix,
                         "62e5acc1d58209d394b2864eff7d0d24"
                         "f72c78b4bb18c24b278a76f3eed61992"),
    "merge-4-shards": (_merge_4_shards,
                       "6e2b6bfd629e3ca6caa84a2bc7224313"
                       "a606e04c377d691feaba54e652f482b5"),
    "k8": (_k8,
           "3bef6dbcdac16186af3ecd381826f243"
           "cbb51a2496a240eb0059728ce0e219f7"),
    "restored-then-continued": (_restored_then_continued,
                                "0fbd3c6e17e95bd67277cf164aaaa483"
                                "1f2024526202d82541c674f52c998830"),
}


class TestGoldenState:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
    def test_state_digest_is_pinned(self, name):
        build, digest = GOLDEN_STATES[name]
        assert state_digest(build(feed_by_add)) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
    def test_extend_reproduces_pinned_state(self, name):
        build, digest = GOLDEN_STATES[name]
        assert state_digest(build(feed_by_extend)) == digest


def add_loop_state(values, k: int = 200) -> dict[str, object]:
    sketch = QuantileSketch(k=k)
    feed_by_add(sketch, values)
    return sketch.to_state()


def assert_running_state_consistent(sketch: QuantileSketch) -> None:
    levels = sketch.to_state()["levels"]
    assert sketch.retained == sum(len(items) for items in levels)
    assert sketch.count == sum(len(items) << level
                               for level, items in enumerate(levels))


class TestExtend:
    def test_ints_and_arrays_are_recorded_as_floats(self):
        sketch = QuantileSketch(k=8)
        sketch.extend([3, 1, 2] * 20)
        sketch.extend(np.arange(40, dtype=np.int64))
        reference = QuantileSketch(k=8)
        feed_by_add(reference, [3, 1, 2] * 20 + list(range(40)))
        assert sketch.to_state() == reference.to_state()
        assert all(type(value) is float
                   for items in sketch.to_state()["levels"]
                   for value in items)

    def test_empty_extend_is_a_noop(self):
        sketch = QuantileSketch()
        sketch.extend([])
        sketch.extend(np.array([]))
        assert sketch.is_empty
        assert sketch.to_state() == QuantileSketch().to_state()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_batch_changes_nothing(self, bad):
        sketch = QuantileSketch(k=8)
        sketch.extend(np.linspace(0.0, 1.0, 100))
        before = sketch.to_state()
        with pytest.raises(SimulationError):
            sketch.extend([0.5] * 50 + [bad] + [0.25])
        assert sketch.to_state() == before
        assert_running_state_consistent(sketch)


class TestFromStateValidation:
    @staticmethod
    def spilled_state() -> dict[str, object]:
        sketch = QuantileSketch(k=8)
        sketch.extend(np.linspace(0.0, 1.0, 500))
        return sketch.to_state()

    def test_valid_spilled_state_accepted(self):
        state = self.spilled_state()
        restored = QuantileSketch.from_state(state)
        assert restored.to_state() == state
        assert_running_state_consistent(restored)

    def test_count_must_equal_retained_weight(self):
        state = QuantileSketch(k=8).to_state()
        state.update(count=3, min=1.0, max=1.0, levels=[[1.0]])
        with pytest.raises(SimulationError, match="weight"):
            QuantileSketch.from_state(state)
        state = self.spilled_state()
        state["count"] += 1
        with pytest.raises(SimulationError, match="weight"):
            QuantileSketch.from_state(state)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_retained_values_must_be_finite(self, bad):
        state = self.spilled_state()
        state["levels"][-1][0] = bad
        with pytest.raises(SimulationError, match="finite"):
            QuantileSketch.from_state(state)

    def test_min_must_not_exceed_max(self):
        state = self.spilled_state()
        state["min"], state["max"] = state["max"], state["min"]
        with pytest.raises(SimulationError, match="min"):
            QuantileSketch.from_state(state)

    def test_empty_state_keeps_infinite_extrema(self):
        restored = QuantileSketch.from_state(QuantileSketch().to_state())
        assert restored.is_empty


finite_values = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)

#: One step of a sketch's life: the operation name and its argument.
operations = st.one_of(
    st.tuples(st.just("add"), finite_values),
    st.tuples(st.just("extend"), st.lists(finite_values, max_size=400)),
    st.tuples(st.just("add_repeated"),
              st.tuples(finite_values, st.integers(0, 5_000))),
    st.tuples(st.just("merge"), st.lists(finite_values, max_size=400)),
    st.tuples(st.just("round_trip"), st.none()),
)


def apply(sketch: QuantileSketch, operation, batched: bool):
    """Apply one operation; *batched* feeds lists by extend, else add."""
    name, argument = operation
    feed = feed_by_extend if batched else feed_by_add
    if name == "add":
        sketch.add(argument)
    elif name == "extend":
        feed(sketch, argument)
    elif name == "add_repeated":
        sketch.add_repeated(*argument)
    elif name == "merge":
        other = QuantileSketch(k=sketch.k)
        feed(other, argument)
        sketch.merge(other)
    else:
        sketch = QuantileSketch.from_state(sketch.to_state())
    return sketch


class TestRunningStateProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_values, max_size=3_000),
           st.integers(min_value=0, max_value=3_000),
           st.sampled_from([8, 16, 50, 200]))
    def test_extend_equals_add_loop(self, values, split, k):
        batched = QuantileSketch(k=k)
        feed_by_add(batched, values[:split])
        batched.extend(values[split:])
        assert batched.to_state() == add_loop_state(values, k=k)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(operations, max_size=25),
           st.sampled_from([8, 16, 50]))
    def test_running_state_tracks_levels(self, steps, k):
        batched, reference = QuantileSketch(k=k), QuantileSketch(k=k)
        for step in steps:
            batched = apply(batched, step, batched=True)
            reference = apply(reference, step, batched=False)
            assert_running_state_consistent(batched)
        assert batched.to_state() == reference.to_state()
