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

The ``arbiter`` axis pins the grant schedule of every entry in
``ARBITER_PRESETS`` on one small workload (GB reservations on two outputs,
BE traffic from reserved inputs, one priority level), on the event kernel
only: the array kernel refuses non-SSVC stacks. Iterative presets run on
``voq_config()``. Several presets (arrival-stamped VC, PVC, CCSP, GSF) run
in no paper artifact, so these hashes are what holds their schedules.

The iterative presets also pin their kernel and ``voq.*`` counters
(wakes, heap pushes, declines, matches, matched pairs, iterations and
proposals), so a changed retry wake or proposal count fails even when no
grant event moves.

The ``bitflip`` axis runs the same workload with auxVC bit-flips on output
0 under the HALVE, RESET and three-class stacks. The flips lift two
counters to high levels, which moves output 0's HALVE and RESET events to
other commits (the second one from cycle 3348 to 3195): these hashes pin
how a flipped counter feeds the saturation check.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.config import FIG4_CONFIG
from repro.experiments.common import ARBITER_PRESETS, make_simulation, voq_config
from repro.faults import FaultPlan, counter_bitflip, packet_drop, packet_dup
from repro.obs import CountingProbe
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


def _preset_workload() -> Workload:
    """GB reservations on outputs 0 and 1, BE traffic from reserved inputs.

    Every BE source also holds a reservation at its output, so arbiters
    that require one per requester (Virtual Clock, SSVC) accept it.
    """
    workload = Workload(name="preset-mix")
    for src, rate in enumerate((0.1, 0.2, 0.3, 0.15)):
        workload.add(gb_flow(src, 0, reserved_rate=rate))
    workload.add(gb_flow(4, 1, reserved_rate=0.4, inject_rate=0.3))
    workload.add(
        replace(gb_flow(5, 1, reserved_rate=0.3, inject_rate=0.5), priority_level=3)
    )
    workload.add(replace(be_flow(1, 0, packet_length=4, inject_rate=0.3), priority_level=1))
    workload.add(be_flow(2, 0, packet_length=(1, 4), inject_rate=0.2))
    workload.add(be_flow(4, 1, packet_length=2))
    return workload


def _events_hash(events) -> str:
    payload = "\n".join(repr(event) for event in events)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    return _events_hash(sim.run(HORIZON).events)


PINNED = {
    "fig4": "965bd67c1465eeca48ceef587dbf284c9e0ec84a9067c26a0521f51d83e720d9",
    "mixed-length": "61fc004ecab927538be896ce7fa1877ee606f08b60a290256f61bd2c8c939dee",
    "fig4-drop-dup": "7e09c426cc96144b04380ee41d8bfa9d647d8d2710c64be8798f529b8060078b",
}


@pytest.mark.parametrize("kernel", ["event", "array"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_saturating_event_stream_hash_is_pinned(name, kernel):
    assert _run_hash(name, kernel) == PINNED[name]


PRESET_HORIZON = 6_000
ITERATIVE_PRESETS = ("islip", "qps-r", "sw-qps")


def _preset_simulation(preset: str, probe=None):
    config = voq_config() if preset in ITERATIVE_PRESETS else FIG4_CONFIG
    return make_simulation(
        "event",
        config,
        _preset_workload(),
        arbiter_factory=ARBITER_PRESETS[preset],
        seed=5,
        collect_events=True,
        probe=probe,
    )


def _preset_hash(preset: str) -> str:
    return _events_hash(_preset_simulation(preset).run(PRESET_HORIZON).events)


PINNED_PRESETS = {
    "ccsp": "a032435d28e62a84414c8e45675aeae8dc04ce8d42715beb6eb6ac6daa73a37e",
    "dwrr": "e6602e923c366a3bb272e6cecc0ac3012f0791c7d33c29e6cf5c080214489142",
    "fixed-priority": "a8c40a87dd410332ee6b98bea00ec4d3876715467aec4d4795340e0aede4de31",
    "gsf": "7f39a054cca86e4d3e7f495b31889ca0e5abae22d4093228208e51f76bc6e940",
    "islip": "72b92d2b297d0f0efa46ac973503660a364c2c0cf28f65f5ebcdd01d762ddf38",
    "lrg": "1557e48b6a11f51252932ac694deb28f530eb1010945cccc963071c645f7cfff",
    "preemptive-vc": "e3cfbe7135eaa0c40faf8cfd8eed11424bf467c38b4b4b538aa5f6c353384bf9",
    "qps-r": "d6a848286d4e2b343edaa9d1ff5b410fc5fe0744f8aeaed12a566db9c52cbb42",
    "ssvc": "b64ac572a903687964dc5908514ac13ea4364a3a0971ec643e0fc2c1b8ee9e29",
    "ssvc-halve": "a4386a71939184160a8eacbb2ce8a918e3b08eda5c96a61d3b24dc276f3e1942",
    "ssvc-reset": "73b34dc7f6c88d85df84152919ef5064e568e50063841469ef834359ff5baefb",
    "ssvc-subtract": "b64ac572a903687964dc5908514ac13ea4364a3a0971ec643e0fc2c1b8ee9e29",
    "sw-qps": "0a394dcefbfd1486297a2a391aea343485ac939a4d06785d0a9e44e30622338c",
    "tdm": "b2ff71756abd6c77a61d10a1c3fa1f4390cb157f93db7c8c1256dce036aa8ab5",
    "three-class": "a081f6a19ca6bbeffafeaee9466afee825cc1b944e54bb97b1cc450d0042ee5e",
    "virtual-clock": "aacf4fe38bf786a4bed1048dc9212fae67cf0eefc66f23a6cf32d2476364f27e",
    "virtual-clock-arrival": "c9efdee348a80af94c1f575e246d08f12be40dc0f978b14ca15e6b10abf49d44",
    "wfq": "f14655e6d1fa373fc84332e6e4706c40b22f22a8d979e0f1aba0f53434f2e1bc",
    "wrr": "013092f47a928c02d2d6cb9dfbdbab4c2af5774fa439bc1a4ad1a3bd716f7391",
    "wrr-strict": "c6d3456d0727bb0f61d5b7133c51cc49c7308913d4f040e1053196e20a78d1ab",
}


def test_every_preset_is_pinned():
    assert sorted(PINNED_PRESETS) == sorted(ARBITER_PRESETS)


@pytest.mark.parametrize("arbiter", sorted(ARBITER_PRESETS))
def test_preset_event_stream_hash_is_pinned(arbiter):
    assert _preset_hash(arbiter) == PINNED_PRESETS[arbiter]


#: Kernel and matching counters of the iterative preset runs above. A
#: change to step 3a's retry wakes or to a matcher's proposal count moves
#: these even when no grant event moves.
PINNED_PRESET_COUNTERS = {
    "islip": {
        "kernel.wakes": 3642, "kernel.heap_pushes": 2946, "kernel.declines": 0,
        "voq.matches": 1639, "voq.matched_pairs": 1872, "voq.iterations": 1639,
        "voq.proposals": 4805,
    },
    "qps-r": {
        "kernel.wakes": 5155, "kernel.heap_pushes": 4897, "kernel.declines": 0,
        "voq.matches": 2449, "voq.matched_pairs": 3024, "voq.iterations": 2449,
        "voq.proposals": 7547,
    },
    "sw-qps": {
        "kernel.wakes": 4081, "kernel.heap_pushes": 3493, "kernel.declines": 0,
        "voq.matches": 1747, "voq.matched_pairs": 1905, "voq.iterations": 1747,
        "voq.proposals": 1909,
    },
}


@pytest.mark.parametrize("preset", ITERATIVE_PRESETS)
def test_iterative_preset_counters_are_pinned(preset):
    probe = CountingProbe()
    _preset_simulation(preset, probe).run(PRESET_HORIZON)
    pinned = PINNED_PRESET_COUNTERS[preset]
    assert {name: probe.value(name) for name in pinned} == pinned


#: Flip the top register bit of input 1's counter, then stack four flips on
#: input 3's, all on output 0 (the SSVC-reserved output of the workload).
BITFLIP_PLAN = FaultPlan(
    seed=0,
    faults=(counter_bitflip(1, 0, bit=11, at_cycle=1_000),)
    + tuple(
        counter_bitflip(3, 0, bit=bit, at_cycle=2_000 + i)
        for i, bit in enumerate((11, 10, 9, 8))
    ),
)

PINNED_BITFLIPS = {
    "ssvc-halve": "5df61f7acea4f589398ada5df0a9c6039d0ed56cf54f70098afa22cf2a877b9a",
    "ssvc-reset": "a17c62102f729e7ce232b1ec3664cdb25426d39260f8b9b63665d9cb092e1eb6",
    "three-class": "cca8a2091140e0cfd4af4db9810630280f906994b7f3488d3da70c18edbfb6b6",
}


@pytest.mark.parametrize("arbiter", sorted(PINNED_BITFLIPS))
def test_bitflip_event_stream_hash_is_pinned(arbiter):
    sim = make_simulation(
        "event",
        FIG4_CONFIG,
        _preset_workload(),
        arbiter_factory=ARBITER_PRESETS[arbiter],
        seed=5,
        collect_events=True,
        fault_plan=BITFLIP_PLAN,
    )
    events = sim.run(PRESET_HORIZON).events
    assert _events_hash(events) != PINNED_PRESETS[arbiter]  # the flips bite
    assert _events_hash(events) == PINNED_BITFLIPS[arbiter]
