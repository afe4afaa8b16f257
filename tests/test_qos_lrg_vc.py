"""Tests for the LRG and original Virtual Clock arbiters."""

import pytest

from repro.core.lrg import LRGState
from repro.errors import ArbitrationError, ConfigError
from repro.qos import LRGArbiter, VirtualClockArbiter
from tests.conftest import gb_request


class TestLRGArbiter:
    def test_empty_requests_return_none(self):
        assert LRGArbiter(4).select([], now=0) is None

    def test_round_robin_under_contention(self):
        arb = LRGArbiter(4)
        winners = [
            arb.arbitrate([gb_request(p) for p in range(4)], now=i).input_port
            for i in range(8)
        ]
        assert winners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ArbitrationError):
            LRGArbiter(4).select([gb_request(1), gb_request(1)], now=0)

    def test_shared_lrg_state_is_used(self):
        shared = LRGState(4)
        shared.grant(0)  # 0 most recently granted
        arb = LRGArbiter(4, lrg=shared)
        assert arb.select([gb_request(0), gb_request(1)], now=0).input_port == 1

    def test_select_does_not_mutate(self):
        arb = LRGArbiter(4)
        arb.select([gb_request(0), gb_request(1)], now=0)
        assert arb.select([gb_request(0), gb_request(1)], now=0).input_port == 0


class TestVirtualClockArbiter:
    def test_requires_registration(self):
        arb = VirtualClockArbiter(4)
        with pytest.raises(ArbitrationError):
            arb.select([gb_request(0)], now=0)

    def test_register_rejects_bad_port(self):
        with pytest.raises(ConfigError):
            VirtualClockArbiter(4).register_flow(7, 0.5, 8)

    def test_smallest_stamp_wins(self):
        arb = VirtualClockArbiter(2)
        arb.register_flow(0, 0.8, 8)  # vtick 10
        arb.register_flow(1, 0.2, 8)  # vtick 40
        # Both start at 0 -> tie -> LRG picks 0; commit advances it to 10.
        assert arb.arbitrate([gb_request(0), gb_request(1)], now=0).input_port == 0
        # Now flow 1 has the smaller stamp (0 effective vs 10).
        assert arb.arbitrate([gb_request(0), gb_request(1)], now=0).input_port == 1

    def test_rate_proportional_grants_when_feasible(self):
        """Backlogged flows with rates summing under capacity each meet them."""
        arb = VirtualClockArbiter(2)
        arb.register_flow(0, 0.6, 8)
        arb.register_flow(1, 0.28, 8)
        grants = {0: 0, 1: 0}
        now = 0
        for _ in range(2000):
            winner = arb.arbitrate([gb_request(0), gb_request(1)], now=now)
            grants[winner.input_port] += 1
            now += 9
        assert grants[0] * 8 / now >= 0.58
        assert grants[1] * 8 / now >= 0.26

    def test_idle_flow_catchup_is_floored_at_real_time(self):
        """The max(auxVC, now) floor bounds an idle flow's catch-up run.

        Flow 0 over-consumes while flow 1 idles, so Virtual Clock rightly
        lets flow 1 catch up — but only from *real time*, not from its
        stale (near-zero) clock. The number of consecutive flow-1 wins is
        therefore (clock0 - now) / vtick1, not clock0 / vtick1.
        """
        arb = VirtualClockArbiter(2)
        arb.register_flow(0, 0.5, 8)  # vtick 16
        arb.register_flow(1, 0.5, 8)
        now = 0
        for _ in range(100):
            arb.arbitrate([gb_request(0)], now=now)
            now += 9
        clock0 = arb.clock(0).value
        floored_bound = (clock0 - now) / 16 + 2
        unfloored_run = clock0 / 16  # what banking the idle clock would allow
        consecutive = 0
        while True:
            winner = arb.arbitrate([gb_request(0), gb_request(1)], now=now)
            now += 9
            if winner.input_port != 1:
                break
            consecutive += 1
        assert consecutive <= floored_bound
        assert consecutive < unfloored_run / 2

    def test_clock_accessor_for_unknown_flow_raises(self):
        with pytest.raises(ArbitrationError):
            VirtualClockArbiter(2).clock(0)
