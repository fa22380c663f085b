"""Tests for repro.energy.ledger."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.energy.ledger import EnergyLedger
from repro.errors import EnergyError


class TestEnergyLedger:
    def test_post_and_total(self):
        ledger = EnergyLedger()
        ledger.post("radio", 1.0)
        ledger.post("radio", 2.0)
        ledger.post("sensor", 0.5)
        assert ledger.total_energy() == pytest.approx(3.5)
        assert ledger.total_energy("radio") == pytest.approx(3.0)
        assert ledger.total_energy("sensor") == pytest.approx(0.5)

    def test_post_power_integrates_duration(self):
        ledger = EnergyLedger()
        ledger.post_power("cpu", power_watts=2.0, duration_seconds=3.0)
        assert ledger.total_energy("cpu") == pytest.approx(6.0)

    def test_breakdown(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0)
        ledger.post("b", 2.0)
        ledger.post("a", 3.0)
        assert ledger.breakdown() == {"a": 4.0, "b": 2.0}

    def test_components_preserve_first_seen_order(self):
        ledger = EnergyLedger()
        ledger.post("z", 1.0)
        ledger.post("a", 1.0)
        ledger.post("z", 1.0)
        assert ledger.components() == ["z", "a"]

    def test_average_power(self):
        ledger = EnergyLedger()
        ledger.post("x", 10.0)
        assert ledger.average_power(5.0) == pytest.approx(2.0)

    def test_average_power_requires_positive_horizon(self):
        ledger = EnergyLedger()
        ledger.post("x", 1.0)
        with pytest.raises(EnergyError):
            ledger.average_power(0.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger().post("x", -1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger().post_power("x", -1.0, 1.0)

    def test_merge_combines_entries(self):
        first = EnergyLedger()
        first.post("a", 1.0)
        second = EnergyLedger()
        second.post("b", 2.0)
        merged = first.merge(second)
        assert merged.total_energy() == pytest.approx(3.0)
        # Originals are untouched.
        assert first.total_energy() == pytest.approx(1.0)
        assert second.total_energy() == pytest.approx(2.0)

    def test_clear(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0)
        ledger.clear()
        assert ledger.total_energy() == 0.0
        assert ledger.components() == []

    def test_unknown_component_total_is_zero(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0)
        assert ledger.total_energy("missing") == 0.0

    @given(st.lists(
        st.tuples(st.sampled_from(["radio", "cpu", "sensor"]),
                  st.floats(min_value=0.0, max_value=100.0)),
        max_size=50,
    ))
    def test_total_equals_sum_of_breakdown(self, postings):
        ledger = EnergyLedger()
        for component, energy in postings:
            ledger.post(component, energy)
        assert ledger.total_energy() == pytest.approx(
            sum(ledger.breakdown().values())
        )


class TestStreamingMode:
    """The ledger keeps O(1) state per component yet answers exactly."""

    def test_default_ledger_retains_no_entries(self):
        ledger = EnergyLedger()
        for index in range(1000):
            ledger.post("radio", 0.001, timestamp_seconds=float(index))
        assert ledger.posted_count == 1000

    def test_streaming_totals_bit_identical_to_exact(self):
        """Running totals add in posting order — bit-identical to a
        sequential left-to-right sum of the posted energies."""
        import random

        rng = random.Random(7)
        postings = [(rng.choice("abc"), rng.random()) for _ in range(500)]
        ledger = EnergyLedger()
        grand = 0.0
        totals: dict[str, float] = {}
        for component, energy in postings:
            ledger.post(component, energy)
            grand += energy
            totals[component] = totals.get(component, 0.0) + energy
        assert ledger.total_energy() == grand
        assert ledger.breakdown() == totals
        assert ledger.components() == list(totals)

    def test_components_order_first_posted(self):
        ledger = EnergyLedger()
        ledger.post("z", 1.0)
        ledger.post("a", 1.0)
        ledger.post("z", 1.0)
        assert ledger.components() == ["z", "a"]


NAN = float("nan")
INF = float("inf")


class TestNonFiniteInput:
    """The validated entry points refuse non-finite input up front."""

    @pytest.mark.parametrize("bad_post", [
        pytest.param(lambda ledger: ledger.post("x", 1.0,
                                                timestamp_seconds=INF),
                     id="post-inf-timestamp"),
        pytest.param(lambda ledger: ledger.post("x", 1.0,
                                                timestamp_seconds=NAN),
                     id="post-nan-timestamp"),
        pytest.param(lambda ledger: ledger.post("x", NAN), id="post-nan"),
        pytest.param(lambda ledger: ledger.post("x", INF), id="post-inf"),
        pytest.param(lambda ledger: ledger.post_power("x", NAN, 1.0),
                     id="power-nan"),
        pytest.param(lambda ledger: ledger.post_power("x", INF, 1.0),
                     id="power-inf"),
        pytest.param(lambda ledger: ledger.post_interval("x", NAN, 0.0, 1.0),
                     id="interval-nan-energy"),
        pytest.param(lambda ledger: ledger.post_interval("x", 1.0, 0.0, INF),
                     id="interval-inf-end"),
        pytest.param(lambda ledger: ledger.post_interval("x", 1.0, 0.0, NAN),
                     id="interval-nan-end"),
    ])
    def test_rejected_before_any_state_changes(self, bad_post):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post("x", 2.0, timestamp_seconds=15.0)
        with pytest.raises(EnergyError):
            bad_post(ledger)
        assert ledger.total_energy() == 2.0
        assert ledger.breakdown() == {"x": 2.0}
        assert ledger.posted_count == 1
        assert ledger.trace_energy_joules().tolist() == [0.0, 2.0, 0.0, 0.0]


class TestPowerTrace:
    def test_energy_lands_in_time_buckets(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post("x", 5.0, timestamp_seconds=0.0)
        ledger.post("x", 3.0, timestamp_seconds=15.0)
        trace = ledger.trace_energy_joules()
        assert trace.tolist() == [5.0, 3.0, 0.0, 0.0]
        assert ledger.power_trace_watts().tolist() == [0.5, 0.3, 0.0, 0.0]

    def test_overflow_lands_in_last_bucket(self):
        ledger = EnergyLedger(trace_bucket_seconds=1.0, trace_buckets=2)
        ledger.post("x", 7.0, timestamp_seconds=100.0)
        assert ledger.trace_energy_joules().tolist() == [0.0, 7.0]

    def test_invalid_trace_configuration_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger(trace_bucket_seconds=0.0)
        with pytest.raises(EnergyError):
            EnergyLedger(trace_buckets=0)


class TestMergeExact:
    def test_merge_adds_totals_and_traces(self):
        first = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        second = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        first.post("a", 1.0, timestamp_seconds=5.0)
        second.post("a", 2.0, timestamp_seconds=5.0)
        second.post("b", 4.0, timestamp_seconds=25.0)
        merged = first.merge(second)
        assert merged.total_energy() == 7.0
        assert merged.breakdown() == {"a": 3.0, "b": 4.0}
        assert merged.components() == ["a", "b"]
        assert merged.posted_count == 3
        assert merged.trace_energy_joules().tolist() == [3.0, 0.0, 4.0, 0.0]

    def test_merge_mismatched_trace_config_rejected(self):
        with pytest.raises(EnergyError):
            EnergyLedger(trace_buckets=4).merge(EnergyLedger(trace_buckets=8))

    def test_clear_resets_streaming_state(self):
        ledger = EnergyLedger()
        ledger.post("a", 1.0, timestamp_seconds=10.0)
        ledger.clear()
        assert ledger.total_energy() == 0.0
        assert ledger.posted_count == 0
        assert float(ledger.trace_energy_joules().sum()) == 0.0


class TestPostInterval:
    def test_spreads_uniformly_across_buckets(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 6.0, 5.0, 35.0)
        # 30 s at 0.2 J/s: 5 s in bucket 0, 10 s in 1 and 2, 5 s in 3.
        assert ledger.trace_energy_joules().tolist() == \
            pytest.approx([1.0, 2.0, 2.0, 1.0])
        assert ledger.total_energy("x") == pytest.approx(6.0)

    def test_end_on_bucket_edge_does_not_smear(self):
        """An interval ending exactly on a bucket edge must leave the
        bucket that starts there untouched (half-open convention)."""
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 4.0, 0.0, 20.0)
        assert ledger.trace_energy_joules().tolist() == \
            pytest.approx([2.0, 2.0, 0.0, 0.0])

    def test_overflow_clamps_to_last_bucket(self):
        ledger = EnergyLedger(trace_bucket_seconds=1.0, trace_buckets=2)
        ledger.post_interval("x", 9.0, 0.5, 3.5)
        trace = ledger.trace_energy_joules()
        assert trace.tolist() == pytest.approx([1.5, 7.5])

    def test_zero_length_degenerates_to_point_post(self):
        ledger = EnergyLedger(trace_bucket_seconds=10.0, trace_buckets=4)
        ledger.post_interval("x", 3.0, 15.0, 15.0)
        assert ledger.trace_energy_joules().tolist() == [0.0, 3.0, 0.0, 0.0]

    def test_invalid_intervals_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(EnergyError):
            ledger.post_interval("x", -1.0, 0.0, 1.0)
        with pytest.raises(EnergyError):
            ledger.post_interval("x", 1.0, 2.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=200.0),
           st.floats(min_value=0.0, max_value=50.0))
    @example(start=0.0, span=5e-324, energy=1.0)
    def test_trace_conserves_posted_energy(self, start, span, energy):
        ledger = EnergyLedger(trace_bucket_seconds=7.0, trace_buckets=6)
        ledger.post_interval("x", energy, start, start + span)
        assert float(ledger.trace_energy_joules().sum()) == \
            pytest.approx(energy)
        assert ledger.total_energy() == pytest.approx(energy)
