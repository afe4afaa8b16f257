"""Tests for the arrival-stamped VC and PVC-style arbiters."""

import pytest

from repro.errors import ArbitrationError, ConfigError
from repro.experiments.common import gb_only_config, run_simulation
from repro.qos import ArrivalStampedVCArbiter, PreemptiveVCArbiter
from repro.traffic.flows import Workload, gb_flow
from repro.traffic.generators import BurstyInjection
from repro.types import CounterMode, FlowId, TrafficClass
from tests.conftest import gb_request


class TestArrivalStampedVC:
    def test_requires_registration(self):
        arb = ArrivalStampedVCArbiter(4)
        with pytest.raises(ArbitrationError):
            arb.select([gb_request(0)], now=0)

    def test_earlier_arrival_with_same_rate_wins(self):
        arb = ArrivalStampedVCArbiter(2)
        arb.register_flow(0, 0.4, 8)
        arb.register_flow(1, 0.4, 8)
        early = gb_request(0, arrival=100)
        late = gb_request(1, arrival=200)
        assert arb.select([early, late], now=250).input_port == 0

    def test_burst_owns_consecutive_stamps(self):
        """The defining difference from transmit-time updates: a queued
        burst's k-th packet is scheduled k Vticks out from its arrival."""
        arb = ArrivalStampedVCArbiter(2)
        arb.register_flow(0, 0.5, 8)  # vtick 16
        arb.register_flow(1, 0.5, 8)
        # Flow 0's packets arrived back-to-back at cycle 0; flow 1's packet
        # arrived at cycle 20. Flow 0's first stamp is 16, second is 32;
        # flow 1's stamp is 20 + 16 = 36 > 32, so flow 0 sends TWICE first.
        first = arb.arbitrate([gb_request(0, arrival=0), gb_request(1, arrival=20)], now=40)
        second = arb.arbitrate([gb_request(0, arrival=0), gb_request(1, arrival=20)], now=49)
        third = arb.arbitrate([gb_request(0, arrival=0), gb_request(1, arrival=20)], now=58)
        assert [first.input_port, second.input_port, third.input_port] == [0, 0, 1]

    def test_stamp_cached_until_commit(self):
        arb = ArrivalStampedVCArbiter(2)
        arb.register_flow(0, 0.5, 8)
        req = gb_request(0, arrival=5)
        first = arb._stamp(req)
        assert arb._stamp(req) == first  # idempotent while head unchanged
        arb.commit(req, now=10)
        # Next packet with a later arrival gets the successor stamp.
        assert arb._stamp(gb_request(0, arrival=6)) == first + 16

    def test_idle_flow_stamps_from_arrival_not_history(self):
        arb = ArrivalStampedVCArbiter(2)
        arb.register_flow(0, 0.5, 8)
        arb.commit(gb_request(0, arrival=0), now=0)  # stamp 16
        # A packet arriving much later starts from its own arrival time.
        assert arb._stamp(gb_request(0, arrival=1000)) == pytest.approx(1016.0)

    def test_rate_proportionality_under_backlog(self):
        arb = ArrivalStampedVCArbiter(2)
        arb.register_flow(0, 0.6, 8)
        arb.register_flow(1, 0.3, 8)
        grants = {0: 0, 1: 0}
        now = 0
        for _ in range(1000):
            reqs = [gb_request(0, arrival=0), gb_request(1, arrival=0)]
            winner = arb.arbitrate(reqs, now=now)
            grants[winner.input_port] += 1
            now += 9
        assert grants[0] / grants[1] == pytest.approx(2.0, rel=0.05)


class TestPreemptiveVC:
    def test_requires_registration(self):
        arb = PreemptiveVCArbiter(4)
        with pytest.raises(ArbitrationError):
            arb.usage_of(0, now=0)

    def test_least_normalized_usage_wins(self):
        arb = PreemptiveVCArbiter(2, frame_cycles=10_000)
        arb.register_flow(0, 0.6, 8)
        arb.register_flow(1, 0.3, 8)
        # After one grant each, flow 0's usage (8/0.6=13.3) is lower than
        # flow 1's (8/0.3=26.7): flow 0 wins the third round.
        arb.arbitrate([gb_request(0), gb_request(1)], now=0)
        arb.arbitrate([gb_request(0), gb_request(1)], now=9)
        third = arb.arbitrate([gb_request(0), gb_request(1)], now=18)
        assert third.input_port == 0

    def test_frame_reset_clears_usage(self):
        arb = PreemptiveVCArbiter(2, frame_cycles=100)
        arb.register_flow(0, 0.5, 8)
        arb.arbitrate([gb_request(0)], now=0)
        assert arb.usage_of(0, now=0) > 0
        assert arb.usage_of(0, now=150) == 0.0
        assert arb.frame_resets == 1

    def test_rate_proportionality(self):
        arb = PreemptiveVCArbiter(2, frame_cycles=4096)
        arb.register_flow(0, 0.6, 8)
        arb.register_flow(1, 0.3, 8)
        grants = {0: 0, 1: 0}
        now = 0
        for _ in range(2000):
            winner = arb.arbitrate([gb_request(0), gb_request(1)], now=now)
            grants[winner.input_port] += 1
            now += 9
        assert grants[0] / grants[1] == pytest.approx(2.0, rel=0.1)

    def test_rejects_bad_frame(self):
        with pytest.raises(ConfigError):
            PreemptiveVCArbiter(2, frame_cycles=0)

    def test_usage_unregistered_raises(self):
        arb = PreemptiveVCArbiter(2)
        arb.register_flow(0, 0.5, 8)
        with pytest.raises(ArbitrationError):
            arb.usage_of(1, now=0)


VARIANT_RATES = (0.40, 0.20, 0.10, 0.05, 0.04, 0.03, 0.02, 0.02)


def run_bursty(preset, counter_mode=CounterMode.SUBTRACT):
    """Eight bursty flows at 90% of the VARIANT_RATES reservations."""
    workload = Workload(name="vc-variants")
    for src, rate in enumerate(VARIANT_RATES):
        workload.add(gb_flow(
            src, 0, rate, packet_length=8,
            process=BurstyInjection(rate * 0.9, burst_packets=4.0),
        ))
    config = gb_only_config(radix=8, sig_bits=4, counter_mode=counter_mode)
    return run_simulation(config, workload, arbiter=preset,
                          horizon=120_000, seed=31)


class TestVariantsUnderBursts:
    """Section 2.2/5 design-space comparisons on the same bursty traffic."""

    def test_both_stampings_couple_latency_to_allocation(self):
        for preset in ("virtual-clock", "virtual-clock-arrival"):
            stats = run_bursty(preset).stats
            latency = [
                stats.flow_stats(FlowId(src, 0, TrafficClass.GB)).latency.mean
                for src in range(len(VARIANT_RATES))
            ]
            assert all(v > 0 for v in latency), preset
            assert min(latency[-2:]) > latency[0], preset

    def test_pvc_frame_reset_matches_ssvc_reset_rates(self):
        """SSVC-reset is the single-cycle hardware form of PVC's frame
        reset: on a feasible mix both deliver every flow's offer."""
        reset = run_bursty("ssvc-reset", CounterMode.RESET)
        pvc = run_bursty("preemptive-vc", CounterMode.RESET)
        for src in range(len(VARIANT_RATES)):
            flow = FlowId(src, 0, TrafficClass.GB)
            assert pvc.accepted_rate(flow) == pytest.approx(
                reset.accepted_rate(flow), abs=0.02
            )


class TestPresetIntegration:
    def test_new_presets_run_end_to_end(self):
        config = gb_only_config(radix=4, channel_bits=64)
        for preset in ("virtual-clock-arrival", "preemptive-vc"):
            workload = Workload()
            for src, rate in enumerate([0.4, 0.25, 0.15, 0.05]):
                workload.add(gb_flow(src, 0, rate, packet_length=8, inject_rate=None))
            result = run_simulation(config, workload, arbiter=preset,
                                    horizon=30_000, seed=5)
            for src, rate in enumerate([0.4, 0.25, 0.15, 0.05]):
                accepted = result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
                assert accepted >= rate - 0.02, (preset, src, accepted)