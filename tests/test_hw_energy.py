"""Tests for the arbitration-energy proxy and fabric activity counting."""

import numpy as np
import pytest

from repro.circuit.fabric import ArbitrationFabric, FabricRequest
from repro.core.thermometer import ThermometerCode
from repro.errors import ConfigError
from repro.hw.energy import (
    EnergyModel,
    arbitration_energy_overhead,
    worst_case_discharges_per_arbitration,
)


def gb(port, level, positions=4):
    return FabricRequest(port, ThermometerCode(positions=positions, level=level))


class TestFabricActivityCounting:
    def test_single_requester_discharges_only_higher_lanes(self):
        fabric = ArbitrationFabric(radix=4, levels=4)
        fabric.arbitrate([gb(0, 2)])
        # Level 2 of 4: lane 3 fully discharged (4 wires) + LRG row in
        # lane 2 (3 wires with default order rank 0 -> beats all 3 others).
        assert fabric.last_discharge_count == 4 + 3

    def test_gl_request_discharges_every_gb_lane(self):
        fabric = ArbitrationFabric(radix=4, levels=4)
        fabric.arbitrate([FabricRequest(0, is_gl=True)])
        # 4 lanes x 4 wires + 3 LRG wires in the GL lane.
        assert fabric.last_discharge_count == 16 + 3

    def test_counts_accumulate(self):
        fabric = ArbitrationFabric(radix=4, levels=4)
        fabric.arbitrate([gb(0, 0)])
        first = fabric.total_discharge_count
        fabric.arbitrate([gb(1, 0)])
        assert fabric.total_discharge_count > first
        assert fabric.total_arbitrations == 2

    def test_activity_below_worst_case_bound(self):
        fabric = ArbitrationFabric(radix=4, levels=4)
        requests = [gb(p, p % 4) for p in range(4)]
        fabric.arbitrate(requests)
        bound = worst_case_discharges_per_arbitration(4, 4)
        assert fabric.last_discharge_count <= bound


    def test_random_activity_stays_below_bound_and_thin(self):
        """Measured pull-down activity over random arbitrations sits under
        the analytic worst case, and arbitration stays a thin slice of
        total energy next to moving an 8-flit, 128-bit packet."""
        rng = np.random.default_rng(5)
        fabric = ArbitrationFabric(radix=8, levels=8)
        for _ in range(2000):
            ports = rng.choice(8, size=int(rng.integers(1, 9)), replace=False)
            fabric.arbitrate_and_grant([
                gb(int(p), int(rng.integers(0, 8)), positions=8) for p in ports
            ])
        mean_activity = fabric.total_discharge_count / fabric.total_arbitrations
        assert 0 < mean_activity < worst_case_discharges_per_arbitration(8, 8)
        share = EnergyModel().arbitration_share(
            int(mean_activity), flits=8, channel_bits=128
        )
        assert share < 0.10


class TestEnergyModel:
    def test_data_energy_scales_with_payload(self):
        model = EnergyModel()
        assert model.data_energy_pj(16, 128) == 2 * model.data_energy_pj(8, 128)

    def test_arbitration_share_is_small_for_long_packets(self):
        """Data movement dominates — arbitration is a thin slice."""
        model = EnergyModel()
        fabric = ArbitrationFabric(radix=8, levels=8)
        fabric.arbitrate([gb(p, p, positions=8) for p in range(8)])
        share = model.arbitration_share(
            fabric.last_discharge_count, flits=8, channel_bits=128
        )
        assert 0.0 < share < 0.15

    def test_overhead_ratio_grows_with_levels(self):
        ratios = [arbitration_energy_overhead(8, levels) for levels in (2, 4, 8, 16)]
        assert ratios == sorted(set(ratios))

    def test_overhead_is_lanes_ratio(self):
        # (levels + GL) / 1 baseline lane.
        assert arbitration_energy_overhead(8, 8) == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            EnergyModel(data_pj_per_bit=0.0)
        with pytest.raises(ConfigError):
            EnergyModel().data_energy_pj(-1, 128)
        with pytest.raises(ConfigError):
            EnergyModel().arbitration_energy_pj(-1)
        with pytest.raises(ConfigError):
            worst_case_discharges_per_arbitration(0, 4)
