"""Pinned event-stream hashes for saturating runs, on both kernels.

``tests/test_determinism_hash.py`` checks same-seed equality and
event == array parity, but never an absolute hash, and only at an
injection rate with no saturating source. A saturating top-up consumes
packet ids (every probe of a full buffer burns one), so a kernel change
that probes full buffers less often, or more, shifts every later id
while both kernels and both runs of a seed still agree. The hashes below
were taken from the kernel that probed every saturating input on every
wake; any rework of that step must reproduce them exactly.

Each hash is the SHA-256 of the ``repr`` of a ``collect_events=True``
event stream (grants and deliveries, packet ids included).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import FIG4_CONFIG
from repro.experiments.common import make_simulation
from repro.faults import FaultPlan, packet_drop, packet_dup
from repro.traffic.flows import Workload, be_flow, gb_flow
from repro.traffic.patterns import fig4_workload

HORIZON = 3_000


def _mixed_length_workload() -> Workload:
    """Fixed-length and (2, 8) range-length saturating flows side by side."""
    workload = Workload(name="mixed-length-saturating")
    for src in range(4):
        workload.add(gb_flow(src, 0, reserved_rate=0.1, packet_length=8))
    for src in range(4, 8):
        workload.add(gb_flow(src, 0, reserved_rate=0.1, packet_length=(2, 8)))
    workload.add(be_flow(0, 1, packet_length=4))
    workload.add(be_flow(1, 1, packet_length=(1, 4)))
    workload.add(gb_flow(2, 3, reserved_rate=0.3, packet_length=(2, 8)))
    return workload


def _run_hash(name: str, kernel: str) -> str:
    plan = None
    if name == "fig4":
        workload = fig4_workload(inject_rate=None)
    elif name == "mixed-length":
        workload = _mixed_length_workload()
    elif name == "fig4-drop-dup":
        workload = fig4_workload(inject_rate=None)
        plan = FaultPlan(
            seed=3, faults=(packet_drop(0.1, output=0), packet_dup(0.1, output=0))
        )
    else:
        raise AssertionError(name)
    sim = make_simulation(
        kernel, FIG4_CONFIG, workload, seed=1, collect_events=True, fault_plan=plan
    )
    result = sim.run(HORIZON)
    payload = "\n".join(repr(event) for event in result.events)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


PINNED = {
    "fig4": "965bd67c1465eeca48ceef587dbf284c9e0ec84a9067c26a0521f51d83e720d9",
    "mixed-length": "61fc004ecab927538be896ce7fa1877ee606f08b60a290256f61bd2c8c939dee",
    "fig4-drop-dup": "7e09c426cc96144b04380ee41d8bfa9d647d8d2710c64be8798f529b8060078b",
}


@pytest.mark.parametrize("kernel", ["event", "array"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_saturating_event_stream_hash_is_pinned(name, kernel):
    assert _run_hash(name, kernel) == PINNED[name]
