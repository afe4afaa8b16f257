"""Simulator kernel tests: hand-traced schedules and global invariants."""

import pytest

from repro.config import GLPolicerConfig, SwitchConfig
from repro.errors import ConfigError, SimulationError
from repro.qos import LRGArbiter
from repro.switch.events import GrantEvent, PacketDelivered
from repro.switch.simulator import Simulation
from repro.traffic.flows import FlowSpec, Workload, be_flow, gb_flow
from repro.traffic.generators import TraceInjection
from repro.types import FlowId, TrafficClass


def lrg_factory(output, config):
    return LRGArbiter(config.radix)


def trace_flow(src, dst, times, flits=8, cls=TrafficClass.BE):
    builder = {TrafficClass.BE: be_flow, TrafficClass.GB: gb_flow}[cls]
    if cls is TrafficClass.GB:
        return gb_flow(src, dst, 0.4, packet_length=flits, process=TraceInjection(times))
    return be_flow(src, dst, packet_length=flits, process=TraceInjection(times))


class TestHandTracedSchedules:
    def test_single_packet_timing(self, small_config):
        """Grant at creation cycle; delivery after arb + L cycles."""
        workload = Workload().add(trace_flow(0, 1, [0], flits=8))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(100)
        [grant] = [e for e in result.events if isinstance(e, GrantEvent)]
        [done] = [e for e in result.events if isinstance(e, PacketDelivered)]
        assert grant.cycle == 0
        assert done.cycle == 9  # 1 arbitration + 8 data cycles
        assert done.latency == 9

    def test_back_to_back_packets_pay_the_bubble(self, small_config):
        """Two queued packets: second starts only after re-arbitration."""
        workload = Workload().add(trace_flow(0, 1, [0, 0], flits=8))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(100)
        grants = [e.cycle for e in result.events if isinstance(e, GrantEvent)]
        assert grants == [0, 9]

    def test_two_backlogged_inputs_alternate_under_lrg(self, small_config):
        workload = Workload()
        workload.add(trace_flow(0, 1, [0] * 4, flits=4))
        workload.add(trace_flow(1, 1, [0] * 4, flits=4))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(200)
        order = [e.input_port for e in result.events if isinstance(e, GrantEvent)]
        assert order == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_later_arrival_waits_for_channel(self, small_config):
        """A packet arriving mid-transmission is granted at channel release."""
        workload = Workload()
        workload.add(trace_flow(0, 1, [0], flits=8))
        workload.add(trace_flow(1, 1, [3], flits=8))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(100)
        grants = {e.input_port: e.cycle for e in result.events if isinstance(e, GrantEvent)}
        assert grants[0] == 0
        assert grants[1] == 9

    def test_input_serves_one_output_at_a_time(self, small_config):
        """One input with packets for two outputs cannot use both at once."""
        workload = Workload()
        workload.add(gb_flow(0, 1, 0.4, packet_length=8, process=TraceInjection([0])))
        workload.add(gb_flow(0, 2, 0.4, packet_length=8, process=TraceInjection([0])))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(100)
        grants = sorted(e.cycle for e in result.events if isinstance(e, GrantEvent))
        assert grants == [0, 9]  # second output waits for the input to free


class TestThroughputCeiling:
    @pytest.mark.parametrize("flits,expected", [(1, 0.5), (4, 0.8), (8, 8 / 9)])
    def test_ceiling_is_l_over_l_plus_one(self, small_config, flits, expected):
        workload = Workload()
        for src in range(4):
            workload.add(
                gb_flow(src, 0, 0.2, packet_length=flits, inject_rate=None)
            )
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory, seed=1)
        result = sim.run(30_000)
        assert result.stats.output_throughput(0) == pytest.approx(expected, abs=0.005)

    def test_zero_arbitration_cycles_reach_full_rate(self):
        config = SwitchConfig(
            radix=4, channel_bits=64, arbitration_cycles=0,
            gl_policer=GLPolicerConfig(reserved_rate=0.0),
        )
        workload = Workload()
        for src in range(4):
            workload.add(gb_flow(src, 0, 0.2, packet_length=8, inject_rate=None))
        sim = Simulation(config, workload, arbiter_factory=lrg_factory, seed=1)
        result = sim.run(20_000)
        assert result.stats.output_throughput(0) == pytest.approx(1.0, abs=0.005)


class TestInvariants:
    def test_delivered_never_exceeds_offered(self, small_config):
        workload = Workload()
        for src in range(4):
            workload.add(be_flow(src, src ^ 1, packet_length=4, inject_rate=0.3))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, seed=5)
        result = sim.run(20_000)
        for flow, stats in result.stats.flows.items():
            assert stats.delivered_flits <= stats.offered_flits

    def test_low_load_delivers_everything(self, small_config):
        workload = Workload().add(be_flow(0, 1, packet_length=4, inject_rate=0.05))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, seed=2)
        result = sim.run(50_000)
        stats = result.stats.flow_stats(FlowId(0, 1, TrafficClass.BE))
        # Everything offered before the tail of the run must be delivered.
        assert stats.delivered_packets >= stats.offered_packets - 2

    def test_flit_conservation_per_flow(self, small_config):
        workload = Workload().add(trace_flow(0, 1, [0, 5, 10], flits=4))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0)
        result = sim.run(1000)
        stats = result.stats.flow_stats(FlowId(0, 1, TrafficClass.BE))
        assert stats.delivered_flits == 12
        assert stats.delivered_packets == 3

    def test_backpressure_overflows_to_source_queue(self):
        """More packets than the buffer holds still all deliver, in order."""
        config = SwitchConfig(
            radix=4, channel_bits=64, be_buffer_flits=4,
            gl_policer=GLPolicerConfig(reserved_rate=0.0),
        )
        workload = Workload().add(trace_flow(0, 1, [0] * 10, flits=4))
        sim = Simulation(config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, collect_events=True)
        result = sim.run(1000)
        stats = result.stats.flow_stats(FlowId(0, 1, TrafficClass.BE))
        assert stats.delivered_packets == 10
        # Waiting time only counts buffered time, so it stays bounded by
        # the service of at most one buffered predecessor.
        assert stats.waiting.maximum <= 10

    def test_oversized_packet_rejected_upfront(self, small_config):
        workload = Workload().add(
            be_flow(0, 1, packet_length=small_config.be_buffer_flits + 1, inject_rate=0.1)
        )
        with pytest.raises(SimulationError):
            Simulation(small_config, workload, arbiter_factory=lrg_factory)

    def test_horizon_must_be_positive(self, small_config):
        sim = Simulation(small_config, Workload(), arbiter_factory=lrg_factory)
        with pytest.raises(SimulationError):
            sim.run(0)

    def test_warmup_must_be_below_horizon(self, small_config):
        sim = Simulation(small_config, Workload(), arbiter_factory=lrg_factory,
                         warmup_cycles=100)
        with pytest.raises(SimulationError):
            sim.run(100)


class TestDeterminism:
    def _run(self, seed, small_config):
        workload = Workload()
        for src in range(4):
            workload.add(be_flow(src, 0, packet_length=4, inject_rate=0.2))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0, seed=seed)
        result = sim.run(10_000)
        return [
            result.stats.flow_stats(FlowId(src, 0, TrafficClass.BE)).delivered_flits
            for src in range(4)
        ]

    def test_same_seed_identical(self, small_config):
        assert self._run(42, small_config) == self._run(42, small_config)

    def test_different_seed_differs(self, small_config):
        assert self._run(1, small_config) != self._run(2, small_config)


class TestSingleRun:
    """Channels, buffers and arbiters live on the switch, so a second
    ``run`` would start from the first one's end state (busy channels,
    full buffers) and silently simulate nothing; it is refused instead."""

    @pytest.mark.parametrize("kernel", ["event", "array"])
    def test_second_run_is_refused(self, kernel):
        from repro.config import FIG4_CONFIG
        from repro.experiments.common import make_simulation
        from repro.traffic.patterns import fig4_workload

        sim = make_simulation(
            kernel, FIG4_CONFIG, fig4_workload(inject_rate=None), seed=1
        )
        assert sim.run(3000).grants == 334
        with pytest.raises(SimulationError, match="build a new Simulation"):
            sim.run(3000)

    def test_rejected_horizon_leaves_the_run_available(self, small_config):
        workload = Workload()
        workload.add(be_flow(0, 0, packet_length=4, inject_rate=None))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory)
        with pytest.raises(SimulationError, match="horizon"):
            sim.run(0)
        assert sim.run(100).grants > 0


class TestMultiOutput:
    def test_permutation_traffic_runs_all_outputs_in_parallel(self, small_config):
        workload = Workload()
        perm = [1, 0, 3, 2]
        for src, dst in enumerate(perm):
            workload.add(gb_flow(src, dst, 0.8, packet_length=8, inject_rate=None))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory, seed=3)
        result = sim.run(20_000)
        for dst in range(4):
            assert result.stats.output_throughput(dst) == pytest.approx(8 / 9, abs=0.01)

    def test_radix16_permutation_saturates_every_output(self):
        """Sixteen SSVC outputs under saturating permutation traffic each
        carry the full L/(L+1) ceiling: outputs never interfere."""
        from repro.experiments.common import gb_only_config, run_simulation
        from repro.traffic.patterns import permutation_workload

        result = run_simulation(
            gb_only_config(radix=16, channel_bits=256), permutation_workload(16),
            arbiter="ssvc", horizon=10_000, seed=2,
        )
        assert result.grants > 10_000
        for dst in range(16):
            assert result.stats.output_throughput(dst) == pytest.approx(8 / 9, abs=0.01)

    def test_reservation_only_flow_generates_no_traffic(self, small_config):
        workload = Workload()
        workload.add(
            FlowSpec(flow=FlowId(0, 1, TrafficClass.GB), process=None, reserved_rate=0.5)
        )
        workload.add(trace_flow(1, 1, [0], flits=4))
        sim = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                         warmup_cycles=0)
        result = sim.run(100)
        assert result.stats.flow_stats(FlowId(0, 1, TrafficClass.GB)).offered_packets == 0
        assert result.stats.flow_stats(FlowId(1, 1, TrafficClass.BE)).delivered_packets == 1


class TestEventCollection:
    def test_events_disabled_by_default(self, small_config):
        workload = Workload().add(trace_flow(0, 1, [0], flits=4))
        result = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                            warmup_cycles=0).run(100)
        assert result.events == []
        assert result.grants == 1

    def test_grant_event_fields(self, small_config):
        workload = Workload()
        workload.add(trace_flow(0, 1, [0], flits=4))
        workload.add(trace_flow(1, 1, [0], flits=4))
        result = Simulation(small_config, workload, arbiter_factory=lrg_factory,
                            warmup_cycles=0, collect_events=True).run(100)
        first = next(e for e in result.events if isinstance(e, GrantEvent))
        assert first.contenders == 2
        assert first.output == 1
        assert first.packet_flits == 4


class TestGLThrottleAccounting:
    def _run_policed(self, horizon=4_000):
        from repro.config import QoSConfig
        from repro.traffic.flows import gl_flow

        config = SwitchConfig(
            radix=4,
            channel_bits=64,
            gb_buffer_flits=16,
            be_buffer_flits=16,
            gl_buffer_flits=16,
            qos=QoSConfig(sig_bits=4, frac_bits=8),
            gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=64),
        )
        workload = Workload(name="gl-throttle")
        workload.add(gl_flow(0, 0, packet_length=4, inject_rate=None))
        workload.add(gb_flow(1, 0, reserved_rate=0.5, inject_rate=None))
        return Simulation(config, workload, seed=1).run(horizon)

    def test_saturating_gl_reports_nonzero_throttles(self):
        """Regression: the kernel filters ineligible GL heads before the
        arbiter ever sees them, so counting only inside
        ``ThreeClassArbiter.select`` left ``throttle_events`` near zero
        while the policer was in fact suppressing GL almost every cycle."""
        result = self._run_policed()
        assert result.gl_throttle_events[0] > 100
        # Outputs with no GL traffic report zero, not missing keys.
        assert set(result.gl_throttle_events) == {0, 1, 2, 3}
        assert result.gl_throttle_events[1] == 0

    def test_throttled_gl_still_respects_reservation(self):
        """The aggressor is clamped near its 5% reservation; the GB flow
        keeps the bulk of the channel."""
        result = self._run_policed()
        gl_rate = result.accepted_rate(FlowId(0, 0, TrafficClass.GL))
        gb_rate = result.accepted_rate(FlowId(1, 0, TrafficClass.GB))
        assert gl_rate < 0.15
        assert gb_rate > 0.5

    def test_per_input_dedupe_of_kernel_and_arbiter_counting(self):
        """GLPolicer.note_throttled(now, input) counts one event per
        (cycle, input) no matter how many call sites report the same
        decision — while distinct inputs in one cycle each count."""
        from repro.qos.gl_policer import GLPolicer

        policer = GLPolicer(GLPolicerConfig(reserved_rate=0.1, burst_window=10))
        policer.note_throttled(5, 0)
        policer.note_throttled(5, 0)  # second report of the same decision
        policer.note_throttled(5, 2)  # different input, same cycle
        policer.note_throttled(6, 0)
        assert policer.throttle_events == 3

    def test_two_throttled_gl_inputs_in_one_cycle_both_count(self):
        """Regression: with cycle-only dedupe, two saturating GL inputs
        aimed at one policed output undercounted by ~2x."""
        from repro.config import QoSConfig
        from repro.traffic.flows import gl_flow

        config = SwitchConfig(
            radix=4,
            channel_bits=64,
            gb_buffer_flits=16,
            be_buffer_flits=16,
            gl_buffer_flits=16,
            qos=QoSConfig(sig_bits=4, frac_bits=8),
            gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=64),
        )
        two_gl = Workload(name="gl-throttle-two")
        two_gl.add(gl_flow(0, 0, packet_length=4, inject_rate=None))
        two_gl.add(gl_flow(1, 0, packet_length=4, inject_rate=None))
        one_gl = Workload(name="gl-throttle-one")
        one_gl.add(gl_flow(0, 0, packet_length=4, inject_rate=None))
        horizon = 4_000
        two = Simulation(config, two_gl, seed=1).run(horizon)
        one = Simulation(config, one_gl, seed=1).run(horizon)
        # Both saturating inputs are denied in (almost) every throttled
        # cycle, so the two-input run must report well above the
        # single-input run — not the same count, as cycle-only dedupe gave.
        assert two.gl_throttle_events[0] > 1.5 * one.gl_throttle_events[0]


class TestPriorityLevels:
    """Workload priority levels reach the arbiters that have levels."""

    @staticmethod
    def _leveled_workload():
        flow = trace_flow(0, 1, [0, 20])
        return Workload().add(FlowSpec(**{**flow.__dict__, "priority_level": 2}))

    def test_levels_are_ignored_by_a_stack_without_levels(self, small_config):
        sim = Simulation(small_config, self._leveled_workload(),
                         arbiter_factory=lrg_factory)
        assert sim.run(100).stats.flows

    def test_set_level_error_propagates_from_the_run(self, small_config):
        class RejectingLevels(LRGArbiter):
            def set_level(self, input_port, level):
                raise ConfigError(f"level {level} rejected")

        sim = Simulation(small_config, self._leveled_workload(),
                         arbiter_factory=lambda o, c: RejectingLevels(c.radix))
        with pytest.raises(ConfigError, match="level 2 rejected"):
            sim.run(100)
