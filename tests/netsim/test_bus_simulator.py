"""Tests for repro.netsim.bus and repro.netsim.simulator."""

from __future__ import annotations

import pytest

from repro import units
from repro.comm.eqs_hbc import wir_commercial
from repro.errors import SimulationError
from repro.netsim.arbitration import FIFOArbitration
from repro.netsim.bus import SharedBus
from repro.netsim.events import EventQueue
from repro.netsim.packet import Packet
from repro.netsim.simulator import BodyNetworkSimulator
from repro.netsim.traffic import PeriodicSource, PoissonSource
from repro.netsim.config import NodeConfig


def make_bus(rate: float = 1e6, overhead: float = 0.0,
             max_queue: int = 100) -> tuple[EventQueue, SharedBus]:
    queue = EventQueue()
    bus = SharedBus(queue, link_rate_bps=rate,
                    per_packet_overhead_seconds=overhead,
                    max_queue_packets=max_queue)
    return queue, bus


class TestSharedBus:
    def test_single_packet_latency_is_serialization_time(self):
        queue, bus = make_bus(rate=1e6)
        packet = Packet(source="a", destination="hub", bits=1e6, created_at=0.0)
        bus.submit(packet)
        queue.run_until(10.0)
        assert packet.delivered
        assert packet.latency_seconds == pytest.approx(1.0)

    def test_fifo_ordering(self):
        queue, bus = make_bus(rate=1e6)
        first = Packet(source="a", destination="hub", bits=1e5, created_at=0.0)
        second = Packet(source="b", destination="hub", bits=1e5, created_at=0.0)
        bus.submit(first)
        bus.submit(second)
        queue.run_until(10.0)
        assert first.delivered_at < second.delivered_at

    def test_queueing_delay_accumulates(self):
        queue, bus = make_bus(rate=1e6)
        packets = [
            Packet(source="a", destination="hub", bits=5e5, created_at=0.0)
            for _ in range(3)
        ]
        for packet in packets:
            bus.submit(packet)
        queue.run_until(10.0)
        latencies = [p.latency_seconds for p in packets]
        assert latencies == sorted(latencies)
        assert latencies[-1] == pytest.approx(1.5)

    def test_overhead_charged_per_packet(self):
        queue, bus = make_bus(rate=1e6, overhead=0.01)
        packet = Packet(source="a", destination="hub", bits=1e4, created_at=0.0)
        bus.submit(packet)
        queue.run_until(1.0)
        assert packet.latency_seconds == pytest.approx(0.01 + 0.01)

    def test_drops_when_queue_full(self):
        queue, bus = make_bus(rate=1e3, max_queue=2)
        accepted = [
            bus.submit(Packet(source="a", destination="hub", bits=1e3, created_at=0.0))
            for _ in range(5)
        ]
        assert accepted.count(False) >= 2
        assert bus.stats.dropped_packets >= 2

    def test_stats_utilization_and_throughput(self):
        queue, bus = make_bus(rate=1e6)
        bus.submit(Packet(source="a", destination="hub", bits=5e5, created_at=0.0))
        queue.run_until(1.0)
        assert bus.stats.throughput_bps(1.0) == pytest.approx(5e5)
        assert bus.stats.utilization(1.0) == pytest.approx(0.5)

    def test_delivery_callback_invoked(self):
        queue, bus = make_bus()
        seen = []
        bus.on_delivery(seen.append)
        bus.submit(Packet(source="a", destination="hub", bits=100.0, created_at=0.0))
        queue.run_until(1.0)
        assert len(seen) == 1

    def test_latency_percentiles_require_deliveries(self):
        _, bus = make_bus()
        with pytest.raises(SimulationError):
            bus.stats.latency_percentile(99.0)

    def test_invalid_configuration_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            SharedBus(queue, link_rate_bps=0.0)


class TestBodyNetworkSimulator:
    def make_simulator(self) -> BodyNetworkSimulator:
        return BodyNetworkSimulator(wir_commercial(), rng=0)

    def test_runs_and_delivers_packets(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("ecg", PeriodicSource.from_rate(3_000.0),
                           sensing_power_watts=units.microwatt(30.0)))
        result = simulator.run(5.0)
        assert result.delivered_packets > 0
        assert result.dropped_packets == 0

    def test_goodput_tracks_offered_rate(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("audio", PeriodicSource.from_rate(256_000.0)))
        result = simulator.run(5.0)
        assert result.per_node_goodput_bps["audio"] == pytest.approx(256_000.0, rel=0.15)

    def test_leaf_power_dominated_by_sensing_for_low_rate_nodes(self):
        """A 3 kb/s ECG leaf on Wi-R: communication adds < 2 uW on average."""
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("ecg", PeriodicSource.from_rate(3_000.0),
                           sensing_power_watts=units.microwatt(30.0)))
        result = simulator.run(10.0)
        power = result.per_node_average_power_watts["ecg"]
        assert units.microwatt(29.0) <= power <= units.microwatt(34.0)

    def test_hub_receive_energy_positive(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("imu", PeriodicSource.from_rate(9_600.0)))
        result = simulator.run(2.0)
        assert result.hub_rx_energy_joules > 0.0

    def test_latency_grows_with_contention(self):
        lightly_loaded = self.make_simulator()
        lightly_loaded.attach(NodeConfig("n0", PeriodicSource.from_rate(100_000.0)))
        light = lightly_loaded.run(2.0)

        heavily_loaded = self.make_simulator()
        for index in range(30):
            heavily_loaded.attach(NodeConfig(f"n{index}", PeriodicSource.from_rate(100_000.0)))
        heavy = heavily_loaded.run(2.0)
        assert heavy.mean_latency_seconds > light.mean_latency_seconds
        assert heavy.bus_utilization > light.bus_utilization

    def test_poisson_sources_supported(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("events", PoissonSource(
            mean_interarrival_seconds=0.05, mean_bits_per_packet=4096.0,
        )))
        result = simulator.run(5.0)
        assert result.delivered_packets > 10

    def test_duplicate_node_rejected(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("x", PeriodicSource.from_rate(1000.0)))
        with pytest.raises(SimulationError):
            simulator.attach(NodeConfig("x", PeriodicSource.from_rate(1000.0)))

    def test_run_requires_nodes(self):
        with pytest.raises(SimulationError):
            self.make_simulator().run(1.0)

    def test_subclassed_policy_rejected(self):
        class CustomFIFO(FIFOArbitration):
            pass

        with pytest.raises(SimulationError, match="unsupported arbitration"):
            BodyNetworkSimulator(wir_commercial(), arbitration=CustomFIFO())

    def test_medium_callbacks_closed(self):
        bus = self.make_simulator().bus
        for register in (bus.on_delivery, bus.on_attempt, bus.on_loss):
            with pytest.raises(SimulationError, match="only data path"):
                register(lambda *args: None)

    def test_medium_submit_closed(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("a", PeriodicSource.from_rate(3_000.0)))
        with pytest.raises(SimulationError, match="only data path"):
            simulator.bus.submit(Packet("a", "hub", 100.0, 0.0))
        assert simulator.bus.policy.pending_count() == 0
        assert simulator.run(5.0).delivered_packets > 0

    def test_describe(self):
        simulator = self.make_simulator()
        simulator.attach(NodeConfig("a", PeriodicSource.from_rate(1000.0)))
        description = simulator.describe()
        assert description["node_count"] == 1
        assert description["technology"] == wir_commercial().name

    def test_deterministic_given_seed(self):
        def run_once() -> float:
            simulator = BodyNetworkSimulator(wir_commercial(), rng=7)
            simulator.attach(NodeConfig("events", PoissonSource(
                mean_interarrival_seconds=0.02, mean_bits_per_packet=2048.0,
            )))
            return simulator.run(2.0).delivered_bits

        assert run_once() == pytest.approx(run_once())
