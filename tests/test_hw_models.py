"""Tests for the hardware cost models against the paper's anchors."""

import pytest

from repro.config import QoSConfig, SwitchConfig, TABLE1_CONFIG
from repro.errors import ConfigError
from repro.hw.area import AreaModel, crosspoint_area_overhead
from repro.hw.lanes import (
    lane_feasibility_table,
    max_gb_levels,
    num_lanes,
    required_bus_width,
    supports_three_classes,
)
from repro.hw.storage import storage_breakdown
from repro.hw.timing import TimingModel, frequency_table


class TestStorageTable1:
    """Exact reproduction of the paper's Table 1 numbers."""

    def test_buffering_matches_paper(self):
        breakdown = storage_breakdown(TABLE1_CONFIG)
        assert breakdown.be_buffer_per_input == 256
        assert breakdown.gb_buffer_per_input == 16_384
        assert breakdown.gl_buffer_per_input == 256
        assert breakdown.total_buffering / 1024 == pytest.approx(1056.0)

    def test_crosspoint_state_matches_paper(self):
        breakdown = storage_breakdown(TABLE1_CONFIG)
        assert breakdown.auxvc_per_crosspoint == pytest.approx(11 / 8)
        assert breakdown.thermometer_per_crosspoint == 1.0
        assert breakdown.vtick_per_crosspoint == 1.0
        assert breakdown.lrg_per_crosspoint == pytest.approx(63 / 8)
        assert breakdown.total_crosspoint_state / 1024 == pytest.approx(45.0)

    def test_total_matches_paper(self):
        assert storage_breakdown(TABLE1_CONFIG).total / 1024 == pytest.approx(1101.0)

    def test_crosspoint_count_is_radix_squared(self):
        assert storage_breakdown(TABLE1_CONFIG).num_crosspoints == 4096

    def test_scales_with_other_configs(self):
        small = storage_breakdown(SwitchConfig(radix=8, channel_bits=128))
        assert small.total < storage_breakdown(TABLE1_CONFIG).total
        totals = [
            storage_breakdown(
                SwitchConfig(radix=radix, channel_bits=256, qos=QoSConfig(sig_bits=3))
            ).total
            for radix in (8, 16, 32, 64)
        ]
        assert totals == sorted(set(totals))

    def test_rows_cover_all_items(self):
        rows = storage_breakdown(TABLE1_CONFIG).rows()
        assert len(rows) == 10


class TestLanes:
    def test_formula(self):
        assert num_lanes(128, 8) == 16
        assert num_lanes(256, 64) == 4

    def test_paper_feasibility_claims(self):
        # "For a radix-8, radix-16 and radix-32 switch, a 128-bit bus is
        # sufficient. For a radix-64 switch, a 256-bit bus is required."
        for radix in (8, 16, 32):
            assert supports_three_classes(128, radix)
        assert not supports_three_classes(128, 64)
        assert supports_three_classes(256, 64)

    def test_required_bus_width(self):
        assert required_bus_width(8) == 128
        assert required_bus_width(64) == 256

    def test_required_bus_width_infeasible_raises(self):
        with pytest.raises(ConfigError):
            required_bus_width(1024, standard_widths=(128, 256))

    def test_gb_levels_reserve_be_and_gl_lanes(self):
        assert max_gb_levels(128, 8) == 14
        assert max_gb_levels(128, 64) == 0

    def test_feasibility_table_covers_grid(self):
        rows = lane_feasibility_table()
        assert len(rows) == 12

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigError):
            num_lanes(0, 8)


class TestTiming:
    def test_worst_slowdown_anchor(self):
        rows = frequency_table()
        radix, width, *_ , slow = max(rows, key=lambda r: r[4])
        assert (radix, width) == (8, 256)
        assert slow == pytest.approx(8.4, abs=0.1)

    def test_base_frequency_anchor(self):
        model = TimingModel()
        assert model.frequency_ss(64, 128) == pytest.approx(1.5, abs=0.01)

    def test_frequency_decreases_with_radix(self):
        model = TimingModel()
        assert model.frequency_ss(8, 128) > model.frequency_ss(64, 128)

    def test_frequency_decreases_with_width(self):
        model = TimingModel()
        assert model.frequency_ss(8, 128) > model.frequency_ss(8, 512)

    def test_slowdown_shrinks_with_radix(self):
        """Fewer lanes at high radix -> shallower mux -> less slowdown."""
        model = TimingModel()
        assert model.slowdown(8, 256) > model.slowdown(64, 256)

    def test_single_lane_has_no_mux(self):
        model = TimingModel()
        assert model.mux_stages(64, 64) == 0
        assert model.slowdown(64, 64) == 0.0

    def test_ssvc_never_faster_than_base(self):
        model = TimingModel()
        for radix in (8, 16, 32, 64):
            for width in (128, 256, 512):
                assert model.frequency_ssvc(radix, width) <= model.frequency_ss(radix, width)

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigError):
            TimingModel().cycle_time_ss(0, 128)


class TestArea:
    def test_128bit_anchor_is_131_equivalent(self):
        """Paper: 2% overhead at 128 bits == a 131-bit channel."""
        model = AreaModel()
        assert model.equivalent_channel_bits(8, 128) == pytest.approx(131.0)
        assert model.overhead_fraction(8, 128) == pytest.approx(0.023, abs=0.003)

    def test_wide_channels_absorb_the_logic(self):
        model = AreaModel()
        assert model.overhead_fraction(8, 256) == 0.0
        assert model.overhead_fraction(32, 512) == 0.0

    def test_overhead_grows_with_radix_at_128(self):
        model = AreaModel()
        assert model.overhead_fraction(32, 128) > model.overhead_fraction(8, 128)

    def test_sweep_covers_paper_grid(self):
        rows = crosspoint_area_overhead()
        assert len(rows) == 9

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigError):
            AreaModel().ssvc_logic_bits(0)
        with pytest.raises(ConfigError):
            AreaModel().overhead_fraction(8, 0)
