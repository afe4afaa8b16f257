"""Tests for the metrics package: latency stats, windows, collector, report."""

import pytest

from repro.errors import SimulationError
from repro.metrics.counters import StatsCollector
from repro.metrics.latency import LatencyStats
from repro.metrics.report import format_table
from repro.metrics.throughput import ThroughputWindow
from repro.switch.flit import Packet
from repro.types import FlowId, TrafficClass


class TestLatencyStats:
    def test_mean_min_max(self):
        stats = LatencyStats()
        for v in [10, 20, 30]:
            stats.add(v)
        assert stats.mean == 20.0
        assert stats.minimum == 10
        assert stats.maximum == 30
        assert stats.count == 3

    def test_percentiles_exact(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.add(v)
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p99 == pytest.approx(99.01)

    def test_empty_mean_is_zero(self):
        assert LatencyStats().mean == 0.0

    def test_empty_extremes_raise(self):
        with pytest.raises(SimulationError):
            LatencyStats().maximum
        with pytest.raises(SimulationError):
            LatencyStats().percentile(50)

    def test_zero_delivery_simulation_raises_typed_error_everywhere(self):
        """Unified empty-sample contract, exercised end-to-end: a flow that
        delivers nothing within the horizon yields LatencyStats whose
        min/max/percentile all raise SimulationError (never NaN or a bare
        numpy warning), while serialization reports ``{"count": 0}``."""
        from repro.config import SwitchConfig
        from repro.serialization import latency_stats_to_dict
        from repro.switch.simulator import Simulation
        from repro.traffic.flows import Workload, gb_flow
        from repro.traffic.generators import BernoulliInjection

        config = SwitchConfig(radix=2, channel_bits=32)
        workload = Workload(name="zero-delivery")
        # Injection rate so low that no packet arrives within the horizon.
        workload.add(
            gb_flow(0, 0, 0.5, packet_length=4, process=BernoulliInjection(1e-9))
        )
        result = Simulation(config, workload, seed=0, warmup_cycles=0).run(200)
        stats = result.stats.flow_stats(FlowId(0, 0, TrafficClass.GB))
        assert stats.delivered_packets == 0
        for access in (
            lambda: stats.latency.minimum,
            lambda: stats.latency.maximum,
            lambda: stats.latency.percentile(50),
            lambda: stats.latency.p99,
        ):
            with pytest.raises(SimulationError):
                access()
        assert stats.latency.mean == 0.0  # documented sentinel, not NaN
        assert latency_stats_to_dict(stats.latency) == {"count": 0}

    def test_negative_sample_rejected(self):
        with pytest.raises(SimulationError):
            LatencyStats().add(-1)

    def test_bad_percentile_rejected(self):
        stats = LatencyStats()
        stats.add(1)
        with pytest.raises(SimulationError):
            stats.percentile(101)

    def test_stddev(self):
        stats = LatencyStats()
        for v in [2, 4, 4, 4, 5, 5, 7, 9]:
            stats.add(v)
        assert stats.stddev == pytest.approx(2.138, abs=0.01)

    def test_stddev_of_single_sample_is_zero(self):
        stats = LatencyStats()
        stats.add(5)
        assert stats.stddev == 0.0


class TestThroughputWindow:
    def test_samples_bucketed(self):
        window = ThroughputWindow(window_cycles=100)
        window.add(50, 10)
        window.add(150, 20)
        window.add(160, 5)
        assert window.rates() == [0.1, 0.25]

    def test_sustained_minimum_skips_edges(self):
        window = ThroughputWindow(window_cycles=10)
        for cycle, flits in [(5, 1), (15, 8), (25, 6), (35, 2)]:
            window.add(cycle, flits)
        assert window.sustained_minimum() == 0.6

    def test_sustained_minimum_without_interior_raises(self):
        window = ThroughputWindow(window_cycles=10)
        window.add(5, 1)
        with pytest.raises(SimulationError):
            window.sustained_minimum()

    def test_sustained_minimum_skip_last_zero_keeps_final_window(self):
        window = ThroughputWindow(window_cycles=10)
        for cycle, flits in [(5, 9), (15, 8), (25, 2)]:
            window.add(cycle, flits)
        assert window.sustained_minimum(skip_last=0) == 0.2

    def test_sustained_minimum_skips_consuming_all_windows_raise(self):
        # Regression: `windows[skip_first : len - skip_last or None]` bound
        # `or None` to the subtraction, so len == skip_last silently meant
        # "no upper bound" and the cooldown window leaked into the minimum.
        window = ThroughputWindow(window_cycles=10)
        for cycle, flits in [(5, 9), (15, 1)]:
            window.add(cycle, flits)
        with pytest.raises(SimulationError):
            window.sustained_minimum(skip_first=0, skip_last=2)

    def test_sustained_minimum_skip_last_equal_to_windows_raises(self):
        window = ThroughputWindow(window_cycles=10)
        for cycle, flits in [(5, 9), (15, 7), (25, 3)]:
            window.add(cycle, flits)
        # Pre-fix this returned min of ALL windows (0.3) instead of raising.
        with pytest.raises(SimulationError):
            window.sustained_minimum(skip_first=1, skip_last=3)

    def test_sustained_minimum_negative_skips_raise(self):
        window = ThroughputWindow(window_cycles=10)
        for cycle, flits in [(5, 9), (15, 7), (25, 3)]:
            window.add(cycle, flits)
        with pytest.raises(SimulationError):
            window.sustained_minimum(skip_first=-1)
        with pytest.raises(SimulationError):
            window.sustained_minimum(skip_last=-1)

    def test_invalid_samples_rejected(self):
        with pytest.raises(SimulationError):
            ThroughputWindow(10).add(-1, 5)


def delivered_packet(flow, created, grant, delivered, flits=8):
    pkt = Packet(flow=flow, flits=flits, created_cycle=created)
    pkt.injected_cycle = created
    pkt.grant_cycle = grant
    pkt.delivered_cycle = delivered
    return pkt


class TestStatsCollector:
    FLOW = FlowId(0, 1, TrafficClass.GB)

    def test_warmup_filters_samples(self):
        collector = StatsCollector(warmup_cycles=100)
        early = delivered_packet(self.FLOW, 0, 50, 59)
        late = delivered_packet(self.FLOW, 120, 150, 159)
        for pkt in (early, late):
            collector.on_created(pkt.flow, pkt.created_cycle, pkt.flits)
        collector.on_delivered(early)
        collector.on_delivered(late)
        stats = collector.flow_stats(self.FLOW)
        assert stats.offered_packets == 1
        assert stats.delivered_packets == 1
        assert stats.latency.count == 1

    def test_rates_need_finish(self):
        collector = StatsCollector()
        with pytest.raises(SimulationError):
            collector.accepted_rate(self.FLOW)

    def test_accepted_and_offered_rates(self):
        collector = StatsCollector(warmup_cycles=0)
        pkt = delivered_packet(self.FLOW, 10, 20, 29, flits=8)
        collector.on_created(pkt.flow, pkt.created_cycle, pkt.flits)
        collector.on_delivered(pkt)
        collector.finish(100)
        assert collector.accepted_rate(self.FLOW) == pytest.approx(0.08)
        assert collector.flow_stats(self.FLOW).offered_rate(100) == pytest.approx(0.08)

    def test_output_and_class_aggregation(self):
        collector = StatsCollector(warmup_cycles=0)
        gb = delivered_packet(FlowId(0, 1, TrafficClass.GB), 0, 5, 13)
        be = delivered_packet(FlowId(1, 1, TrafficClass.BE), 0, 20, 28)
        other = delivered_packet(FlowId(2, 3, TrafficClass.GB), 0, 5, 13)
        for pkt in (gb, be, other):
            collector.on_delivered(pkt)
        collector.finish(100)
        assert collector.output_throughput(1) == pytest.approx(0.16)
        assert collector.class_throughput(TrafficClass.GB) == pytest.approx(0.16)

    def test_delivery_without_grant_rejected(self):
        collector = StatsCollector()
        pkt = Packet(flow=self.FLOW, flits=8, created_cycle=0)
        with pytest.raises(SimulationError):
            collector.on_delivered(pkt)

    def test_finish_requires_horizon_beyond_warmup(self):
        collector = StatsCollector(warmup_cycles=100)
        with pytest.raises(SimulationError):
            collector.finish(100)


class TestFormatTable:
    def test_basic_shape(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "2.500" in table
        assert "-" in lines[-1]

    def test_title(self):
        assert format_table(["a"], [], title="T").startswith("T\n")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_float_format_override(self):
        assert "2.5" in format_table(["x"], [[2.5]], float_format=".1f")
