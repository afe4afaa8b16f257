"""Tests for the two-stage composition substrate (Section 4.4 extension)."""

import numpy as np
import pytest

from repro.config import QoSConfig
from repro.errors import ConfigError, SimulationError, TrafficError
from repro.multiswitch.simulator import ComposedFlow, MultiStageSimulation
from repro.multiswitch.storage import composed_storage_overhead
from repro.multiswitch.topology import ClosTopology
from repro.obs.probe import CountingProbe
from tests.reference_multiswitch import GrantRecorder


class TestTopology:
    def test_addressing(self):
        topo = ClosTopology(groups=4, hosts_per_group=4)
        assert topo.num_hosts == 16
        assert topo.group_of(0) == 0
        assert topo.group_of(5) == 1
        assert topo.local_index(5) == 1
        assert topo.uplink_for(13) == 3

    def test_radices(self):
        assert ClosTopology(groups=8, hosts_per_group=4).ingress_radix == 8
        assert ClosTopology(groups=2, hosts_per_group=8).ingress_radix == 8

    def test_sharing_counts(self):
        topo = ClosTopology(groups=4, hosts_per_group=4)
        assert topo.flows_sharing_ingress_crosspoint() == 4
        assert topo.flows_sharing_egress_input() == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClosTopology(groups=1)
        with pytest.raises(ConfigError):
            ClosTopology(hosts_per_group=0)
        with pytest.raises(ConfigError):
            ClosTopology(link_latency=-1)
        with pytest.raises(ConfigError):
            ClosTopology().group_of(99)


class TestStorageModel:
    def test_isolation_costs_more_than_aggregation(self):
        storage = composed_storage_overhead(ClosTopology(groups=4, hosts_per_group=4))
        assert storage.isolated_state > storage.aggregate_state
        assert storage.isolation_premium > 1.0

    def test_overhead_grows_with_group_size(self):
        """"Requiring more per-flow state storage": restoring isolation
        costs more the more flows share each aggregate (~linear in h)."""
        premium = [
            composed_storage_overhead(
                ClosTopology(groups=4, hosts_per_group=h)
            ).isolation_premium
            for h in (2, 4, 8, 16)
        ]
        assert premium == sorted(set(premium))
        assert premium[-1] > 10


def flow(src, dst, rate=0.2, inject=None):
    return ComposedFlow(src, dst, rate=rate, inject_rate=inject)


class TestSimulatorBasics:
    TOPO = ClosTopology(groups=2, hosts_per_group=2, link_latency=2)

    def test_single_flow_end_to_end_timing(self):
        """One packet: 1+L at ingress, link latency, 1+L at egress."""
        sim = MultiStageSimulation(
            self.TOPO,
            [ComposedFlow(0, 2, rate=0.5, packet_flits=4, inject_rate=0.01)],
            qos=QoSConfig(sig_bits=3, frac_bits=6),
            seed=1,
        )
        result = sim.run(20_000, warmup_cycles=0)
        stats = result.stats.flow_stats(flow(0, 2).flow_id)
        assert stats.delivered_packets > 10
        # Min latency = (1+4) ingress + 2 link + (1+4) egress = 12 cycles.
        assert stats.latency.minimum == 12

    def test_saturating_flow_throughput(self):
        sim = MultiStageSimulation(
            self.TOPO,
            [ComposedFlow(0, 2, rate=0.8, packet_flits=8, inject_rate=None)],
            seed=1,
        )
        result = sim.run(20_000)
        # The two-hop pipeline still sustains the single-channel ceiling.
        assert result.accepted_rate(0, 2) == pytest.approx(8 / 9, abs=0.02)

    def test_aggregate_bandwidth_shared_inside_group(self):
        """Two flows to the same destination group share one crosspoint."""
        sim = MultiStageSimulation(
            self.TOPO,
            [
                ComposedFlow(0, 2, rate=0.4, inject_rate=None),
                ComposedFlow(0, 3, rate=0.4, inject_rate=None),
                ComposedFlow(1, 2, rate=0.1, inject_rate=None),
            ],
            seed=2,
        )
        result = sim.run(30_000)
        # Host 0's two flows share the (host0, uplink1) aggregate FIFO, so
        # they split its service roughly evenly.
        r02 = result.accepted_rate(0, 2)
        r03 = result.accepted_rate(0, 3)
        assert r02 == pytest.approx(r03, abs=0.05)
        assert result.accepted_rate(1, 2) >= 0.09

    def test_duplicate_flow_rejected(self):
        with pytest.raises(TrafficError):
            MultiStageSimulation(self.TOPO, [flow(0, 2), flow(0, 2)])

    def test_oversubscribed_aggregate_rejected(self):
        with pytest.raises(TrafficError):
            MultiStageSimulation(
                self.TOPO, [flow(0, 2, rate=0.6), flow(0, 3, rate=0.6)]
            )

    @pytest.mark.parametrize("inject_rate", [0.0, -0.1, 1.5])
    def test_inject_rate_outside_unit_interval_rejected(self, inject_rate):
        # 0.0 used to build fine and crash the run inside numpy's sampler.
        with pytest.raises(TrafficError, match="inject_rate"):
            ComposedFlow(0, 3, rate=0.2, inject_rate=inject_rate)

    def test_empty_flow_list_rejected(self):
        with pytest.raises(TrafficError):
            MultiStageSimulation(self.TOPO, [])

    def test_bad_horizon_rejected(self):
        sim = MultiStageSimulation(self.TOPO, [flow(0, 2)])
        with pytest.raises(SimulationError):
            sim.run(0)

    def test_second_run_is_refused(self):
        # The SSVC cores are built once, in __init__: a second run would
        # start from the first run's counters and LRG state, and flow
        # 0->2 got 0.4000 against a fresh run's 0.3985.
        flows = [
            ComposedFlow(0, 2, rate=0.4, inject_rate=None),
            ComposedFlow(0, 3, rate=0.4, inject_rate=None),
            ComposedFlow(1, 2, rate=0.1, inject_rate=None),
        ]
        sim = MultiStageSimulation(self.TOPO, flows, seed=2)
        first = sim.run(3_000)
        with pytest.raises(SimulationError, match="already ran"):
            sim.run(3_000)
        fresh = MultiStageSimulation(self.TOPO, flows, seed=2).run(3_000)
        assert first.accepted_rate(0, 2) == fresh.accepted_rate(0, 2)


class TestArrivalStream:
    def test_scheduled_arrivals_push_no_wake_heap_entries(self):
        """Host arrivals come from one presorted stream, not the wake heap.

        8-flit packets never fit the 4-flit egress FIFOs, so nothing is
        granted: every wake is cycle 0 or an arrival cycle, and nothing is
        pushed onto the wake heap at all.
        """
        topo = ClosTopology(groups=2, hosts_per_group=2, link_latency=2)
        flows = [
            ComposedFlow(0, 2, rate=0.4, packet_flits=8, inject_rate=0.3),
            ComposedFlow(1, 3, rate=0.4, packet_flits=8, inject_rate=0.2),
            ComposedFlow(2, 0, rate=0.4, packet_flits=8, inject_rate=0.3),
        ]
        probe = CountingProbe()
        sim = MultiStageSimulation(
            topo, flows, downlink_capacity_flits=4, seed=4, probe=probe
        )
        result = sim.run(2_000)
        schedules = [source.schedule for source in sim.build_sources(2_000)]
        arrival_cycles = set(np.concatenate(schedules).tolist())
        assert result.grants_ingress == 0
        assert sum(len(s) for s in schedules) > 100
        assert "multiswitch.heap_pushes" not in probe.counters
        assert probe.counters["multiswitch.wakes"] == len(arrival_cycles | {0})


class TestDeliveryOrder:
    @pytest.mark.parametrize("link_latency", [1, 2, 3])
    def test_each_flow_delivers_its_packets_in_creation_order(self, link_latency):
        """An arrival never overtakes an older packet of its flow.

        Host 1 feeds two groups through 8-flit VOQs, so both back up. A
        host-wide source FIFO in front of the VOQs once let a fresh arrival
        enter a VOQ while an older packet of its flow still waited, and
        this run delivered one packet ahead of an older one of its flow.
        """
        topo = ClosTopology(groups=2, hosts_per_group=2, link_latency=link_latency)
        flows = [
            ComposedFlow(1, 0, rate=0.3, packet_flits=4, inject_rate=0.3),
            ComposedFlow(1, 3, rate=0.3, packet_flits=4, inject_rate=0.3),
        ]
        probe = GrantRecorder()
        MultiStageSimulation(
            topo,
            flows,
            voq_capacity_flits=8,
            downlink_capacity_flits=8,
            seed=38,
            probe=probe,
        ).run(3_000)
        deliveries = probe.deliveries(topo)
        assert set(deliveries) == {(1, 0), (1, 3)}
        for ids in deliveries.values():
            assert len(ids) > 100
            assert ids == sorted(ids)


class TestCompositionEffects:
    """The Section 4.4 claims, measured."""

    def test_victim_latency_inflates_in_composition(self):
        from repro.experiments.composition import run_composition

        result = run_composition(horizon=30_000)
        # Bandwidth aggregates still deliver the reserved rate...
        assert result.composed_rate >= result.single_rate - 0.02
        # ...but flow separation is gone: latency inflates severalfold.
        assert result.composed_latency > 3 * result.single_latency
        # Shared downlink FIFOs produce head-of-line blocking.
        assert result.hol_blocked_cycles > 100
        # Restoring isolation costs extra per-flow state.
        assert result.isolation_premium > 1.5

    def test_backpressure_bounds_in_flight_flits(self):
        """Credit reservation keeps egress FIFOs within capacity."""
        topo = ClosTopology(groups=2, hosts_per_group=2, link_latency=8)
        sim = MultiStageSimulation(
            topo,
            [
                ComposedFlow(0, 2, rate=0.45, inject_rate=None),
                ComposedFlow(1, 3, rate=0.45, inject_rate=None),
            ],
            downlink_capacity_flits=16,
            seed=3,
        )
        result = sim.run(20_000)
        # Both flows still make progress through the bounded FIFO.
        assert result.accepted_rate(0, 2) > 0.3
        assert result.accepted_rate(1, 3) > 0.3
