"""Adversarial and stress scenarios: the system must degrade gracefully.

Failure-injection-style tests: hostile workloads, pathological parameter
corners, and long runs with tiny counters. None of these should raise, and
the QoS invariants that *can* hold must still hold.
"""

import pytest

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.experiments.common import gb_only_config, run_simulation
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.generators import BernoulliInjection, TraceInjection
from repro.types import CounterMode, FlowId, TrafficClass


class TestGLStorm:
    def test_all_inputs_storm_gl_with_policing(self):
        """Every input floods GL; policing must preserve GB service."""
        config = SwitchConfig(
            radix=8,
            channel_bits=128,
            gb_buffer_flits=16,
            gl_buffer_flits=8,
            qos=QoSConfig(sig_bits=4, frac_bits=8),
            gl_policer=GLPolicerConfig(reserved_rate=0.10, burst_window=1024),
        )
        workload = Workload()
        for src in range(8):
            workload.add(gl_flow(src, 0, packet_length=2, inject_rate=None))
            if src < 4:
                workload.add(gb_flow(src, 0, 0.15, packet_length=8, inject_rate=None))
        result = run_simulation(config, workload, arbiter="three-class",
                                horizon=40_000, seed=7)
        gb_total = result.stats.class_throughput(TrafficClass.GB)
        gl_total = result.stats.class_throughput(TrafficClass.GL)
        # GB keeps the bulk; the GL storm is pinned near its 10% class share
        # (plus whatever leftover the demoted-to-BE packets pick up).
        assert gb_total > 0.55
        assert gl_total < 0.35


class TestPathologicalCounters:
    @pytest.mark.parametrize("mode", list(CounterMode))
    def test_tiny_counters_long_run(self, mode):
        """1 significant + 2 fractional bits: constant saturation events."""
        config = gb_only_config(radix=4, channel_bits=64, sig_bits=1,
                                counter_mode=mode)
        config = config.with_qos(sig_bits=1, frac_bits=2, counter_mode=mode)
        workload = Workload()
        for src, rate in enumerate([0.5, 0.2, 0.1, 0.05]):
            workload.add(gb_flow(src, 0, rate, packet_length=8, inject_rate=None))
        result = run_simulation(config, workload, arbiter="ssvc",
                                horizon=60_000, seed=3)
        # With 2 levels the comparison is nearly pure LRG; guarantees relax
        # toward equal shares, but the channel must stay fully utilized and
        # nobody may starve.
        assert result.stats.output_throughput(0) == pytest.approx(8 / 9, abs=0.01)
        for src in range(4):
            assert result.accepted_rate(FlowId(src, 0, TrafficClass.GB)) > 0.05

    def test_extreme_vtick_ratio(self):
        """A 0.9 flow against a 0.001-ish flow: no overflow, no starvation."""
        config = gb_only_config(radix=4, channel_bits=64)
        workload = Workload()
        workload.add(gb_flow(0, 0, 0.88, packet_length=8, inject_rate=None))
        workload.add(gb_flow(1, 0, 0.001, packet_length=8, inject_rate=None))
        result = run_simulation(config, workload, arbiter="ssvc",
                                horizon=60_000, seed=1)
        assert result.accepted_rate(FlowId(0, 0, TrafficClass.GB)) >= 0.80
        assert result.accepted_rate(FlowId(1, 0, TrafficClass.GB)) > 0.0


class TestBufferCorners:
    def test_single_packet_buffers_make_progress(self):
        config = SwitchConfig(
            radix=4, channel_bits=64,
            gb_buffer_flits=8, be_buffer_flits=8, gl_buffer_flits=8,
            gl_policer=GLPolicerConfig(reserved_rate=0.0),
        )
        workload = Workload()
        for src in range(4):
            workload.add(gb_flow(src, 0, 0.2, packet_length=8, inject_rate=None))
        result = run_simulation(config, workload, arbiter="ssvc",
                                horizon=20_000, seed=2)
        assert result.stats.output_throughput(0) == pytest.approx(8 / 9, abs=0.02)

    def test_simultaneous_burst_to_every_output(self):
        """Every input bursts to every output at cycle 0: no deadlock."""
        config = gb_only_config(radix=4, channel_bits=64)
        workload = Workload()
        for src in range(4):
            for dst in range(4):
                workload.add(
                    gb_flow(src, dst, 0.2, packet_length=4,
                            process=TraceInjection([0, 0]))
                )
        result = run_simulation(config, workload, arbiter="ssvc",
                                horizon=5_000, seed=1, warmup_cycles=0)
        delivered = sum(
            s.delivered_packets for s in result.stats.flows.values()
        )
        assert delivered == 32  # all 4x4x2 packets drained


class TestLRGStarvationFreedom:
    def test_sporadic_flow_never_waits_more_than_a_round(self):
        """LRG guarantee: a requester waits at most radix-1 grants."""
        from dataclasses import replace

        config = replace(gb_only_config(radix=8), be_buffer_flits=16)
        workload = Workload()
        for src in range(7):
            workload.add(be_flow(src, 0, packet_length=8, inject_rate=None))
        workload.add(
            be_flow(7, 0, packet_length=8, process=BernoulliInjection(0.01))
        )
        result = run_simulation(config, workload, arbiter="lrg",
                                horizon=60_000, seed=9)
        sporadic = result.stats.flow_stats(FlowId(7, 0, TrafficClass.BE))
        assert sporadic.waiting.count > 20
        # Worst wait: 7 other packets x 9 cycles each, plus the one in
        # flight when it arrived.
        assert sporadic.waiting.maximum <= 8 * 9


class TestScaleCorners:
    def test_radix_64_uniform_random_delivers_the_offered_load(self):
        """The paper's full scale: 4096 flows of uniform-random traffic at
        0.4 offered and no hotspot; every output carries ~the offer."""
        from repro.traffic.patterns import uniform_random_workload

        config = SwitchConfig(
            radix=64, channel_bits=256, gb_buffer_flits=16,
            qos=QoSConfig(sig_bits=2, frac_bits=8),
            gl_policer=GLPolicerConfig(reserved_rate=0.0),
        )
        result = run_simulation(config, uniform_random_workload(64, inject_rate=0.4),
                                arbiter="ssvc", horizon=3_000, seed=1)
        assert sum(result.output_utilization.values()) / 64 > 0.37

    def test_radix_64_single_output(self):
        """The paper's full radix: 64 inputs contending one output."""
        config = SwitchConfig(
            radix=64, channel_bits=256, gb_buffer_flits=16,
            qos=QoSConfig(sig_bits=2, frac_bits=8),
            gl_policer=GLPolicerConfig(reserved_rate=0.0),
        )
        workload = Workload()
        rates = [0.2, 0.1, 0.1] + [0.4 / 61] * 61
        for src in range(64):
            workload.add(gb_flow(src, 0, rates[src], packet_length=8, inject_rate=None))
        result = run_simulation(config, workload, arbiter="ssvc",
                                horizon=30_000, seed=4)
        assert result.stats.output_throughput(0) == pytest.approx(8 / 9, abs=0.01)
        assert result.accepted_rate(FlowId(0, 0, TrafficClass.GB)) >= 0.18
        assert result.accepted_rate(FlowId(1, 0, TrafficClass.GB)) >= 0.09
