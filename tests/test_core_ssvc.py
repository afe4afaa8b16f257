"""Tests for repro.core.ssvc — the coarse-grained Virtual Clock core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import QoSConfig
from repro.core.lrg import LRGState
from repro.core.ssvc import SSVCCore
from repro.errors import ArbitrationError, ConfigError
from repro.types import CounterMode


def make_core(mode=CounterMode.SUBTRACT, sig_bits=3, frac_bits=6, n=4):
    qos = QoSConfig(sig_bits=sig_bits, frac_bits=frac_bits, counter_mode=mode)
    return SSVCCore(qos, num_inputs=n)


class TestRegistration:
    def test_register_returns_vtick(self):
        core = make_core()
        assert core.register_flow(0, rate := 0.25, 8) == pytest.approx(8 / rate)

    def test_reregistration_overwrites(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        core.register_flow(0, 0.25, 8)
        assert core.vtick(0) == pytest.approx(32.0)

    def test_rejects_out_of_range_port(self):
        with pytest.raises(ConfigError):
            make_core(n=4).register_flow(4, 0.5, 8)

    def test_registered_inputs_sorted(self):
        core = make_core()
        core.register_flow(2, 0.1, 8)
        core.register_flow(0, 0.1, 8)
        assert core.registered_inputs == [0, 2]

    def test_unregistered_flow_raises(self):
        with pytest.raises(ArbitrationError):
            make_core().level(0, 0)

    def test_lrg_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SSVCCore(QoSConfig(), num_inputs=4, lrg=LRGState(8))


class TestLevels:
    def test_fresh_flow_at_level_zero(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        assert core.level(0, now=0) == 0

    def test_level_grows_with_transmissions(self):
        core = make_core(frac_bits=4)  # quantum = 16
        core.register_flow(0, 0.5, 8)  # vtick = 16
        core.commit(0, now=0)
        assert core.level(0, now=0) == 1
        core.commit(0, now=0)
        assert core.level(0, now=0) == 2

    def test_level_clamps_at_top(self):
        core = make_core(sig_bits=2, frac_bits=2)  # 4 levels, quantum 4
        core.register_flow(0, 0.01, 8)  # vtick = 800, instant saturation
        core.commit(0, now=0)
        assert core.level(0, now=0) == 3

    def test_thermometer_mirrors_level(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        core.commit(0, now=0)
        assert core.thermometer(0, 0).level == core.level(0, 0)


class TestSelect:
    def test_lowest_level_wins(self):
        core = make_core(frac_bits=4)
        core.register_flow(0, 0.5, 8)
        core.register_flow(1, 0.5, 8)
        core.commit(0, now=0)  # flow 0 now at level 1
        assert core.select([0, 1], now=0) == 1

    def test_tie_broken_by_lrg(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        core.register_flow(1, 0.5, 8)
        # Both at level 0; LRG initial order prefers 0.
        assert core.select([0, 1], now=0) == 0
        core.commit(0, now=0)
        # vtick 16 < quantum 64, still both level 0; LRG now prefers 1.
        assert core.select([0, 1], now=0) == 1

    def test_select_is_pure(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        before = core.counter_value(0, 0)
        core.select([0], now=0)
        assert core.counter_value(0, 0) == before

    def test_select_empty_raises(self):
        with pytest.raises(ArbitrationError):
            make_core().select([], now=0)

    def test_duplicate_tied_candidates_raise(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        core.register_flow(1, 0.5, 8)
        with pytest.raises(ArbitrationError, match="duplicate"):
            core.select([0, 1, 1], now=0)

    def test_unregistered_candidate_raises(self):
        core = make_core()
        core.register_flow(0, 0.5, 8)
        with pytest.raises(ArbitrationError, match="no GB reservation"):
            core.select([0, 2], now=0)
        with pytest.raises(ArbitrationError, match="no GB reservation"):
            core.commit(2, now=0)


class TestSubtractMode:
    def test_real_time_decay_pulls_level_down(self):
        core = make_core(mode=CounterMode.SUBTRACT, sig_bits=3, frac_bits=4)
        core.register_flow(0, 0.1, 8)  # vtick = 80, quantum = 16
        core.commit(0, now=0)
        assert core.level(0, now=0) == 5
        # Five quanta of real time later the code shifted back to zero.
        assert core.level(0, now=80) == 0

    def test_decay_floors_at_zero(self):
        core = make_core(mode=CounterMode.SUBTRACT)
        core.register_flow(0, 0.5, 8)
        assert core.counter_value(0, now=10_000) == 0.0

    def test_counter_clamps_at_saturation(self):
        core = make_core(mode=CounterMode.SUBTRACT, sig_bits=2, frac_bits=2)
        core.register_flow(0, 0.001, 8)
        for _ in range(5):
            core.commit(0, now=0)
        assert core.counter_value(0, now=0) <= core.qos.saturation

    def test_window_shift_counter_increments(self):
        core = make_core(mode=CounterMode.SUBTRACT, frac_bits=4)
        core.register_flow(0, 0.5, 8)
        core.commit(0, now=0)
        core.counter_value(0, now=64)  # 4 quanta later
        assert core.window_shifts >= 4


class TestHalveMode:
    def test_halving_event_divides_all_flows(self):
        core = make_core(mode=CounterMode.HALVE, sig_bits=2, frac_bits=4)  # sat = 64
        core.register_flow(0, 0.2, 8)  # vtick 40
        core.register_flow(1, 0.5, 8)  # vtick 16
        core.commit(1, now=0)  # flow1 at 16
        core.commit(0, now=0)  # flow0 at 40
        core.commit(0, now=0)  # flow0 at 80 -> clamps to 64 -> halve all
        assert core.halve_events == 1
        assert core.counter_value(0, now=0) == pytest.approx(32.0)
        assert core.counter_value(1, now=0) == pytest.approx(8.0)

    def test_register_clamps_before_halving(self):
        """The hardware register saturates: overflow beyond the window is
        forgotten, so one halving always desaturates."""
        core = make_core(mode=CounterMode.HALVE, sig_bits=1, frac_bits=1)  # sat = 4
        core.register_flow(0, 0.5, 8)  # vtick 16 >> sat
        core.commit(0, now=0)
        assert core.counter_value(0, now=0) == pytest.approx(2.0)  # clamp 4, halve
        assert core.halve_events == 1

    def test_no_real_time_decay_in_halve_mode(self):
        core = make_core(mode=CounterMode.HALVE)
        core.register_flow(0, 0.5, 8)
        core.commit(0, now=0)
        value = core.counter_value(0, now=0)
        assert core.counter_value(0, now=50_000) == value


class TestResetMode:
    def test_reset_event_clears_all_flows(self):
        core = make_core(mode=CounterMode.RESET, sig_bits=2, frac_bits=4)  # sat 64
        core.register_flow(0, 0.2, 8)
        core.register_flow(1, 0.5, 8)
        core.commit(1, now=0)
        core.commit(0, now=0)
        core.commit(0, now=0)  # 80 >= 64 -> reset
        assert core.reset_events == 1
        assert core.counter_value(0, now=0) == 0.0
        assert core.counter_value(1, now=0) == 0.0


class TestBandwidthProportionality:
    @pytest.mark.parametrize("mode", list(CounterMode))
    def test_saturated_service_meets_reservations(self, mode):
        """Synthetic always-backlogged loop: every flow gets >= its rate.

        Rates sum to 0.85, below the 8/9 channel ceiling (one arbitration
        cycle per 8-flit packet), so every reservation is achievable; the
        leftover goes wherever LRG ties send it.
        """
        core = make_core(mode=mode, sig_bits=4, frac_bits=8, n=4)
        rates = {0: 0.35, 1: 0.25, 2: 0.15, 3: 0.10}
        for port, rate in rates.items():
            core.register_flow(port, rate, 8)
        grants = {p: 0 for p in rates}
        now = 0
        for _ in range(4000):
            winner = core.select(list(rates), now)
            core.commit(winner, now)
            grants[winner] += 1
            now += 9  # 8 data cycles + 1 arbitration cycle
        for port, rate in rates.items():
            flit_rate = grants[port] * 8 / now
            assert flit_rate >= rate - 0.02, (port, flit_rate)


@settings(max_examples=40)
@given(
    mode=st.sampled_from(list(CounterMode)),
    steps=st.lists(st.integers(0, 3), min_size=1, max_size=60),
)
def test_winner_always_has_min_level(mode, steps):
    """Property: the SSVC winner is at the lowest coarse level (pre-LRG)."""
    core = make_core(mode=mode, n=4)
    for port in range(4):
        core.register_flow(port, 0.1 + 0.2 * port, 8)
    now = 0
    for _ in steps:
        candidates = list(range(4))
        winner = core.select(candidates, now)
        levels = {p: core.level(p, now) for p in candidates}
        assert levels[winner] == min(levels.values())
        core.commit(winner, now)
        now += 9
