"""Tests for the full BE/GB/GL three-class arbitration stack."""

import pytest

from repro.config import GLPolicerConfig, QoSConfig
from repro.errors import ArbitrationError
from repro.qos import LRGArbiter, ThreeClassArbiter
from tests.conftest import be_request, gb_request, gl_request


def make_arbiter(gl_reserved=0.1, burst_window=100, n=4):
    return ThreeClassArbiter(
        n,
        qos=QoSConfig(sig_bits=3, frac_bits=6),
        gl_policer_config=GLPolicerConfig(
            reserved_rate=gl_reserved, burst_window=burst_window
        ),
    )


class TestPriorityOrder:
    def test_gl_preempts_gb_and_be(self):
        arb = make_arbiter()
        arb.register_flow(1, 0.5, 8)
        winner = arb.select(
            [be_request(0), gb_request(1), gl_request(2)], now=0
        )
        assert winner.input_port == 2

    def test_gb_preempts_be(self):
        arb = make_arbiter()
        arb.register_flow(1, 0.5, 8)
        winner = arb.select([be_request(0), gb_request(1)], now=0)
        assert winner.input_port == 1

    def test_be_served_when_alone(self):
        arb = make_arbiter()
        assert arb.arbitrate([be_request(3)], now=0).input_port == 3

    def test_empty_returns_none(self):
        assert make_arbiter().select([], now=0) is None

    def test_multiple_gl_resolved_by_lrg(self):
        arb = make_arbiter()
        first = arb.arbitrate([gl_request(0), gl_request(1)], now=0)
        second = arb.arbitrate([gl_request(0), gl_request(1)], now=10)
        assert {first.input_port, second.input_port} == {0, 1}


class TestPolicing:
    def test_gl_loses_priority_after_burst_window(self):
        arb = make_arbiter(gl_reserved=0.01, burst_window=50)
        arb.register_flow(1, 0.5, 8)
        # One GL packet charges 1/0.01 = 100 cycles > window.
        assert arb.arbitrate([gl_request(0)], now=0).input_port == 0
        winner = arb.select([gl_request(0), gb_request(1)], now=1)
        assert winner.input_port == 1  # GL demoted below GB
        assert arb.gl_policer.throttle_events == 1

    def test_demoted_gl_still_served_when_channel_free(self):
        arb = make_arbiter(gl_reserved=0.01, burst_window=50)
        arb.arbitrate([gl_request(0)], now=0)
        # Throttled, but nothing else requests: served via the BE plane.
        assert arb.arbitrate([gl_request(0)], now=1).input_port == 0

    def test_gl_priority_recovers_with_real_time(self):
        arb = make_arbiter(gl_reserved=0.1, burst_window=5)
        arb.register_flow(1, 0.5, 8)
        arb.arbitrate([gl_request(0)], now=0)  # usage clock -> 10
        assert arb.select([gl_request(0), gb_request(1)], now=1).input_port == 1
        # By cycle 10 the usage clock lead has decayed within the window.
        assert arb.select([gl_request(0), gb_request(1)], now=10).input_port == 0

    def test_unpoliced_gl_always_wins(self):
        arb = ThreeClassArbiter(
            4, gl_policer_config=GLPolicerConfig(reserved_rate=0.05, burst_window=None)
        )
        arb.register_flow(1, 0.5, 8)
        for now in range(0, 50, 10):
            winner = arb.arbitrate([gl_request(0), gb_request(1)], now=now)
            assert winner.input_port == 0

    def test_zero_reservation_never_grants_gl_priority(self):
        arb = make_arbiter(gl_reserved=0.0, burst_window=100)
        arb.register_flow(1, 0.5, 8)
        assert arb.select([gl_request(0), gb_request(1)], now=0).input_port == 1


class TestGBPlane:
    def test_register_flow_requires_capable_arbiter(self):
        arb = ThreeClassArbiter(4, gb_arbiter=LRGArbiter(4))
        with pytest.raises(ArbitrationError):
            arb.register_flow(0, 0.5, 8)

    def test_injected_gb_arbiter_is_used(self):
        inner = LRGArbiter(4)
        arb = ThreeClassArbiter(4, gb_arbiter=inner)
        winner = arb.arbitrate([gb_request(0), gb_request(1)], now=0)
        assert winner.input_port == 0
        assert inner.lrg.grant_count == 1

    def test_shared_lrg_across_planes(self):
        """A BE grant demotes the input in the GB tie-break too."""
        arb = make_arbiter()
        arb.register_flow(0, 0.4, 8)
        arb.register_flow(1, 0.4, 8)
        arb.arbitrate([be_request(0)], now=0)  # input 0 granted via BE plane
        winner = arb.arbitrate([gb_request(0), gb_request(1)], now=0)
        assert winner.input_port == 1


class TestCommitPaths:
    def test_gl_commit_charges_policer(self):
        arb = make_arbiter(gl_reserved=0.1, burst_window=10_000)
        arb.arbitrate([gl_request(0, flits=2)], now=0)
        assert arb.gl_policer.usage_clock == pytest.approx(20.0)

    def test_be_commit_only_touches_lrg(self):
        arb = make_arbiter()
        arb.arbitrate([be_request(2)], now=0)
        assert arb.lrg.order[-1] == 2
        assert arb.gl_policer.usage_clock == 0.0
