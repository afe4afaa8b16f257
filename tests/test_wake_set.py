"""The event kernel's wake set: which cycles arbitrate.

A wake is a cycle where something an arbiter reads can change: an output
and its sending input come free, a retry after a decline is due, a fault
cycle, or an arrival is admitted into an input buffer. An arrival whose
packet only joins its flow's source queue is not one. These tests pin the
wake counters of the Fig. 4 sweep, where most arrivals join a backlog, and
check the cases that must keep every arrival cycle: an active fault plan
counts its masks per wake.
"""

import pytest

from repro.errors import SimulationError
from repro.experiments.common import gb_only_config, make_arbiter_factory
from repro.faults import FaultPlan
from repro.faults.plan import (
    counter_bitflip,
    crosspoint_dead,
    input_stall,
    packet_drop,
    packet_dup,
)
from repro.obs import CountingProbe
from repro.switch.output_channel import OutputChannel
from repro.switch.simulator import Simulation
from repro.traffic.patterns import FIG4_RESERVED_RATES, single_output_workload

#: Fig. 4 sweep point length and seed (replicate 1 of seed 1's sweep).
HORIZON = 2_000
SEED = 100_001


def fig4_point(rate, probe=None, fault_plan=None):
    """One Fig. 4(b) point as the sweep builds it: SSVC, 8 GB flows, output 0."""
    workload = single_output_workload(
        num_inputs=len(FIG4_RESERVED_RATES),
        output=0,
        reserved_rates=list(FIG4_RESERVED_RATES),
        packet_length=8,
        inject_rate=None if rate >= 1.0 else rate,
    )
    return Simulation(
        gb_only_config(radix=8, channel_bits=128, sig_bits=4),
        workload,
        arbiter_factory=make_arbiter_factory("ssvc"),
        seed=SEED,
        probe=probe,
        fault_plan=fault_plan,
    )


#: ``(kernel.wakes, kernel.grants, kernel.heap_pushes)`` per injection rate.
#: Below saturation every grant's delivery is a heap wake; above it the
#: backlogged arrivals add none. A kernel that woke at every arrival cycle
#: read 1,259 wakes at 0.8 (grants and heap pushes unchanged).
PINNED_FIG4_WAKES = {
    0.02: (95, 47, 47),
    0.05: (207, 107, 106),
    0.08: (305, 161, 160),
    0.1: (380, 202, 201),
    0.15: (323, 221, 220),
    0.2: (316, 221, 220),
    0.3: (255, 222, 221),
    0.4: (239, 222, 221),
    0.6: (236, 222, 221),
    0.8: (235, 222, 221),
    1.0: (223, 223, 222),
}


@pytest.mark.parametrize("rate", sorted(PINNED_FIG4_WAKES))
def test_fig4_wake_counters_are_pinned(rate):
    probe = CountingProbe()
    fig4_point(rate, probe).run(HORIZON)
    counters = (
        probe.value("kernel.wakes"),
        probe.value("kernel.grants"),
        probe.value("kernel.heap_pushes"),
    )
    assert counters == PINNED_FIG4_WAKES[rate]


@pytest.mark.parametrize("rate", [0.3, 0.6, 0.8])
def test_backlogged_arrivals_are_not_wakes(rate):
    """Overloaded, the run has fewer wakes than arrivals.

    Waking at every arrival cycle on top of the delivery wakes gives more
    wakes than arrivals at these points; only the arrivals that find room
    in their buffer (and the deliveries) wake the kernel now.
    """
    probe = CountingProbe()
    fig4_point(rate, probe).run(HORIZON)
    assert probe.value("kernel.wakes") < probe.value("kernel.arrivals")


#: Faults on a Fig. 4 point below saturation, where the output often sits
#: idle: input 1 stalls for 400 cycles, input 2's crosspoint is dead (its
#: packets back up at the source for the whole run), a counter bit-flips,
#: and deliveries draw drops and dups.
FAULT_PLAN = FaultPlan(
    seed=3,
    faults=(
        input_stall(1, 300, 400),
        crosspoint_dead(2, 0),
        counter_bitflip(3, 0, bit=8, at_cycle=900),
        packet_drop(0.05),
        packet_dup(0.05),
    ),
)
FAULT_RATE = 0.1

#: Counters of the faulted run. A fault plan keeps every arrival cycle a
#: wake, because the stall and dead-crosspoint masks count per wake at an
#: idle output, so these read as they did when every arrival cycle
#: arbitrated.
PINNED_FAULTED_COUNTERS = {
    "kernel.wakes": 362,
    "kernel.grants": 172,
    "kernel.heap_pushes": 173,
    "faults.stall_masked": 34,
    "faults.dead_crosspoint_masked": 211,
    "faults.counter_bitflips": 1,
    "faults.packet_drops": 12,
    "faults.packet_dups": 6,
}


def test_faulted_counters_are_pinned():
    probe = CountingProbe()
    fig4_point(FAULT_RATE, probe, FAULT_PLAN).run(HORIZON)
    assert {name: probe.value(name) for name in PINNED_FAULTED_COUNTERS} == (
        PINNED_FAULTED_COUNTERS
    )


def test_a_wake_at_or_before_the_current_cycle_is_refused(monkeypatch):
    """A delivery at the grant cycle would be a wake nobody visits."""

    def instant(self, packet, now, arbitration_cycles):
        packet.grant_cycle = packet.delivered_cycle = now
        return now

    monkeypatch.setattr(OutputChannel, "start_transmission", instant)
    with pytest.raises(SimulationError, match="not after the current cycle"):
        fig4_point(0.6).run(HORIZON)


def test_fault_wake_cycles_at_cycle_zero_are_accepted():
    """Fault cycles are scheduled before the first wake, cycle 0 included."""
    plan = FaultPlan(seed=0, faults=(input_stall(0, 0, 50),))
    probe = CountingProbe()
    fig4_point(0.6, probe, plan).run(HORIZON)
    assert probe.value("faults.stall_masked") > 0
