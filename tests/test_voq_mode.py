"""Full-VOQ switch mode: port behaviour, wiring rules, kernel refusals.

``SwitchConfig.voq=True`` gives every class per-output queues and is the
mode the iterative matching schedulers require. These tests pin the mode
boundary: which queue attributes exist, which kernel accepts the mode,
and the ConfigErrors raised for every invalid pairing (satellite 3's
explicit refusal tests live here).
"""

from __future__ import annotations

import pytest

from repro.config import SwitchConfig
from repro.errors import ConfigError, SimulationError
from repro.experiments.common import make_arbiter_factory, voq_config
from repro.qos import ISLIPArbiter, shared_iterative_factory
from repro.switch.buffers import InputPort
from repro.switch.flit import Packet
from repro.switch.simulator import Simulation
from repro.traffic.patterns import uniform_be_workload
from repro.types import FlowId, TrafficClass


def _be_packet(src: int, dst: int, flits: int = 4) -> Packet:
    return Packet(
        flow=FlowId(src, dst, TrafficClass.BE), flits=flits, created_cycle=0
    )


class TestVOQPort:
    def test_voq_port_has_per_output_queues_for_every_class(self):
        port = InputPort(0, SwitchConfig(radix=4, voq=True))
        assert set(port.be_queues) == set(range(4))
        assert set(port.gl_queues) == set(range(4))
        assert not hasattr(port, "be_queue")
        assert not hasattr(port, "gl_queue")

    def test_classic_port_keeps_single_be_queue(self):
        port = InputPort(0, SwitchConfig(radix=4, voq=False))
        assert hasattr(port, "be_queue")
        assert not hasattr(port, "be_queues")

    def test_be_packets_route_to_their_destination_queue(self):
        port = InputPort(0, SwitchConfig(radix=4, voq=True))
        assert port.try_inject(_be_packet(0, 2), now=0)
        assert port.be_queues[2].occupancy_flits == 4
        assert port.be_queues[0].occupancy_flits == 0

    def test_voq_backlog_reports_per_output_flits(self):
        port = InputPort(0, SwitchConfig(radix=4, voq=True, be_buffer_flits=32))
        assert port.try_inject(_be_packet(0, 1), now=0)
        assert port.try_inject(_be_packet(0, 1), now=0)
        assert port.try_inject(_be_packet(0, 3, flits=2), now=0)
        backlog = port.voq_backlog([0, 1, 2, 3])
        assert backlog == {1: 8, 3: 2}
        # Restricting to free outputs masks the rest.
        assert port.voq_backlog([0, 2]) == {}
        # Every class counts, and a grant's pop leaves the backlog.
        gb = Packet(flow=FlowId(0, 3, TrafficClass.GB), flits=3, created_cycle=0)
        assert port.try_inject(gb, now=0)
        port.pop_packet(port.be_queues[1].head())
        assert port.voq_backlog([0, 1, 2, 3]) == {1: 4, 3: 5}

    def test_voq_backlog_refused_in_classic_mode(self):
        port = InputPort(0, SwitchConfig(radix=4, voq=False))
        with pytest.raises(SimulationError):
            port.voq_backlog([0, 1])


class TestIterativeWiringRules:
    def test_iterative_scheduler_requires_voq_mode(self):
        config = SwitchConfig(radix=4, voq=False)
        with pytest.raises(ConfigError, match="voq"):
            Simulation(
                config,
                uniform_be_workload(4, 0.3, packet_length=4),
                arbiter_factory=make_arbiter_factory("islip"),
            )

    def test_iterative_scheduler_rejects_packet_chaining(self):
        config = voq_config(radix=4)
        config = type(config)(**{**config.__dict__, "packet_chaining": True})
        with pytest.raises(ConfigError, match="chaining"):
            Simulation(
                config,
                uniform_be_workload(4, 0.3, packet_length=4),
                arbiter_factory=make_arbiter_factory("islip"),
            )

    def test_per_output_instances_must_be_shared(self):
        # A factory building a fresh scheduler per output would give each
        # output its own pointers — silently wrong; must refuse loudly.
        config = voq_config(radix=4)
        with pytest.raises(ConfigError, match="shared_iterative_factory"):
            Simulation(
                config,
                uniform_be_workload(4, 0.3, packet_length=4),
                arbiter_factory=lambda o, c: ISLIPArbiter(c.radix),
            )

    def test_radix_mismatch_is_refused(self):
        config = voq_config(radix=4)
        factory = shared_iterative_factory(lambda c: ISLIPArbiter(8))
        with pytest.raises(ConfigError, match="radix"):
            Simulation(
                config,
                uniform_be_workload(4, 0.3, packet_length=4),
                arbiter_factory=factory,
            )

    def test_classic_arbiters_reject_nothing_in_voq_mode(self):
        # VOQ buffering with a classic per-output arbiter is legal: the
        # arbiter sees per-output heads it would otherwise miss.
        sim = Simulation(
            voq_config(radix=4),
            uniform_be_workload(4, 0.5, packet_length=4),
            arbiter_factory=make_arbiter_factory("three-class"),
            seed=3,
        )
        result = sim.run(2_000)
        assert result.stats.total_delivered_flits > 0


class TestKernelRefusals:
    """Satellite 3: the flit and array engines refuse full-VOQ mode."""

    def test_flit_kernel_rejects_voq_config(self):
        from repro.switch.flit_kernel import FlitLevelSimulation

        with pytest.raises(ConfigError, match="voq"):
            FlitLevelSimulation(
                voq_config(radix=4),
                uniform_be_workload(4, 0.3, packet_length=4),
            )

    def test_array_kernel_rejects_voq_config(self):
        from repro.switch.array_kernel import ArraySimulation

        with pytest.raises(ConfigError, match="voq"):
            ArraySimulation(
                voq_config(radix=4),
                uniform_be_workload(4, 0.3, packet_length=4),
            )

    def test_make_simulation_propagates_the_refusal(self):
        from repro.experiments.common import make_simulation

        for kernel in ("flit", "array"):
            with pytest.raises(ConfigError, match="voq"):
                make_simulation(
                    kernel,
                    voq_config(radix=4),
                    uniform_be_workload(4, 0.3, packet_length=4),
                )


class TestVOQEndToEnd:
    def test_voq_clears_the_hol_ceiling_at_high_load(self):
        """The mode's reason to exist: BE uniform traffic at load 0.9
        saturates a classic port near Karol's 58.6% limit while the same
        traffic through VOQ + iSLIP clears 80%."""
        workload = uniform_be_workload(8, 0.9)
        classic = Simulation(
            SwitchConfig(
                radix=8, arbitration_cycles=0, be_buffer_flits=32
            ),
            workload,
            arbiter_factory=make_arbiter_factory("three-class"),
            seed=4,
        ).run(8_000)
        voq = Simulation(
            voq_config(radix=8),
            workload,
            arbiter_factory=make_arbiter_factory("islip"),
            seed=4,
        ).run(8_000)

        def throughput(result) -> float:
            return sum(
                result.stats.output_throughput(o) for o in range(8)
            ) / 8

        assert throughput(classic) < 0.7
        assert throughput(voq) > 0.8
        assert throughput(voq) > throughput(classic)
