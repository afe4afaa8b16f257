"""Satellite bugfix audit: VOQ-buffer occupancy accounting under faults.

The suspicion (ISSUE 9): packet-drop / packet-dup fault injections might
leak buffer occupancy — a dropped packet's flits staying counted (or a
duplicated packet's flits double-counted) would slowly wedge admission.
The audit found no leak: both fault kinds fire *after*
``InputPort.pop_packet`` has removed the granted packet, so the class
buffers never see the faulted copy. These tests pin that invariant as a
contract so a future refactor that moves fault injection before the pop
fails loudly instead of leaking.
"""

from __future__ import annotations

import pytest

from repro.errors import BufferError_, SimulationError
from repro.faults import FaultPlan, packet_drop, packet_dup
from repro.switch.buffers import FlitBuffer
from repro.switch.flit import Packet
from repro.switch.simulator import Simulation
from repro.traffic.patterns import uniform_be_workload, uniform_random_workload
from repro.types import FlowId, TrafficClass


def _packet(flits: int = 4, src: int = 0, dst: int = 0) -> Packet:
    return Packet(
        flow=FlowId(src, dst, TrafficClass.BE), flits=flits, created_cycle=0
    )


class TestFlitBufferAudit:
    def test_audit_matches_incremental_counter(self):
        buf = FlitBuffer(capacity_flits=16)
        first, second = _packet(4), _packet(6)
        buf.push(first)
        buf.push(second)
        assert buf.audit() == 10
        buf.pop()
        assert buf.audit() == 6

    def test_audit_detects_counter_drift(self):
        buf = FlitBuffer(capacity_flits=16)
        buf.push(_packet(4))
        buf._occupancy += 1  # simulate the leak the audit exists to catch
        with pytest.raises(BufferError_, match="occupancy leak"):
            buf.audit()

    def test_audit_detects_negative_occupancy(self):
        buf = FlitBuffer(capacity_flits=16)
        buf.push(_packet(4))
        queued = buf._queue.popleft()  # remove behind the counter's back
        buf._occupancy = -queued.flits
        with pytest.raises(BufferError_):
            buf.audit()

    def test_audit_detects_peak_below_current(self):
        buf = FlitBuffer(capacity_flits=16)
        buf.push(_packet(4))
        buf.peak_occupancy = 1
        with pytest.raises(BufferError_, match="peak_occupancy"):
            buf.audit()


def _run_and_audit(config_voq: bool, plan: FaultPlan, arbiter) -> Simulation:
    """Run 4000 cycles under the plan, audit every port's books, and
    return the finished simulation."""
    from repro.experiments.common import make_arbiter_factory, voq_config

    if config_voq:
        config = voq_config(radix=4, buffer_flits=24)
        workload = uniform_be_workload(4, 0.7, packet_length=4)
    else:
        from repro.config import SwitchConfig

        config = SwitchConfig(radix=4, be_buffer_flits=24, gb_buffer_flits=24)
        workload = uniform_random_workload(
            4, 0.7, packet_length=4, reserved_share=0.8
        )
    sim = Simulation(
        config,
        workload,
        arbiter_factory=make_arbiter_factory(arbiter),
        seed=9,
        fault_plan=plan,
    )
    result = sim.run(4_000)
    assert result.stats.total_delivered_flits > 0
    sim.switch.audit_occupancy()  # every port's books, then the demand
    return sim


@pytest.mark.parametrize("fault", [None, "drop", "dup", "both"])
class TestOccupancyUnderFaultPlans:
    """The pinned invariant: drop/dup injections never unbalance buffers."""

    def _plan(self, fault) -> FaultPlan:
        faults = {
            None: (),
            "drop": (packet_drop(0.2, output=0),),
            "dup": (packet_dup(0.2, output=1),),
            "both": (packet_drop(0.15, output=0), packet_dup(0.15, output=1)),
        }[fault]
        return FaultPlan(seed=5, faults=faults)

    def test_classic_mode_occupancy_balances(self, fault):
        _run_and_audit(False, self._plan(fault), "three-class")

    @pytest.mark.parametrize("arbiter", ["islip", "sw-qps"])
    def test_voq_mode_occupancy_balances(self, fault, arbiter):
        _run_and_audit(True, self._plan(fault), arbiter)


def test_audit_occupancy_reports_port_level_drift():
    """A queue-consistent but port-inconsistent total is caught too."""
    from repro.config import SwitchConfig
    from repro.switch.buffers import InputPort

    port = InputPort(0, SwitchConfig(radix=4))
    packet = _packet(4)
    assert port.try_inject(packet, now=0)
    port._total_occupancy += 2
    with pytest.raises(SimulationError, match="occupancy leak"):
        port.audit_occupancy()


@pytest.mark.parametrize("fault", ["drop", "dup"])
@pytest.mark.parametrize(
    "config_voq, arbiter", [(False, "three-class"), (True, "islip")],
    ids=["classic", "voq"],
)
def test_audit_catches_demand_index_drift_after_faulted_run(
    fault, config_voq, arbiter
):
    """The per-output packet counts the kernel skips outputs by are
    audited as well: after a drop/dup run balances, one count nudged off
    the queue contents is reported as a leak."""
    spec = packet_drop(0.2, output=0) if fault == "drop" else packet_dup(0.2, output=1)
    sim = _run_and_audit(config_voq, FaultPlan(seed=5, faults=(spec,)), arbiter)
    port = sim.switch.inputs[2]
    port.to_output[3] += 1
    with pytest.raises(SimulationError, match="occupancy leak"):
        port.audit_occupancy()


def test_audit_occupancy_reports_demand_index_drift():
    """A per-output count that disagrees with the queues is caught even
    when the flit totals agree."""
    from repro.config import SwitchConfig
    from repro.switch.buffers import InputPort

    port = InputPort(0, SwitchConfig(radix=4))
    assert port.try_inject(_packet(4, dst=1), now=0)
    assert port.to_output == [0, 1, 0, 0]
    port.to_output[1] -= 1
    port.to_output[2] += 1
    with pytest.raises(SimulationError, match="occupancy leak"):
        port.audit_occupancy()


@pytest.mark.parametrize("fault", ["drop", "dup"])
@pytest.mark.parametrize(
    "config_voq, arbiter", [(False, "three-class"), (True, "islip")],
    ids=["classic", "voq"],
)
def test_audit_catches_voq_flit_count_drift_after_faulted_run(
    fault, config_voq, arbiter
):
    """The per-output flit counts the VOQ backlog is read from are audited
    too: after a drop/dup run balances, one count nudged off the queue
    contents is reported as a leak."""
    spec = packet_drop(0.2, output=0) if fault == "drop" else packet_dup(0.2, output=1)
    sim = _run_and_audit(config_voq, FaultPlan(seed=5, faults=(spec,)), arbiter)
    port = sim.switch.inputs[1]
    port.flits_to_output[0] += 4
    with pytest.raises(SimulationError, match="per-output flit counts"):
        port.audit_occupancy()


@pytest.mark.parametrize("fault", ["drop", "dup"])
@pytest.mark.parametrize(
    "config_voq, arbiter", [(False, "three-class"), (True, "islip")],
    ids=["classic", "voq"],
)
def test_audit_catches_switch_demand_drift_after_faulted_run(
    fault, config_voq, arbiter
):
    """The switch-wide per-output demand the kernel skips idle outputs by
    must equal the inputs' per-output counts summed; every port can
    balance on its own while the shared demand has drifted."""
    spec = packet_drop(0.2, output=0) if fault == "drop" else packet_dup(0.2, output=1)
    sim = _run_and_audit(config_voq, FaultPlan(seed=5, faults=(spec,)), arbiter)
    sim.switch.demand[2] += 1
    for port in sim.switch.inputs:
        port.audit_occupancy()  # the ports alone still balance
    with pytest.raises(SimulationError, match="switch occupancy leak"):
        sim.switch.audit_occupancy()

