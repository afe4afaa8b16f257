"""The event kernel's reused requests equal requests built fresh.

Step 3b of :meth:`Simulation.run` keeps one entry per (output, input)
keyed by the input's mutation stamp and the output's GL eligibility, and
re-presents the cached :class:`Request` and throttle decision while the
key matches. These tests wrap every output's arbiter so that each
``select`` call rebuilds what the arbiter should see from the ports'
current state (``head_for_output``, ``total_occupancy_flits``,
``gl_head_for``) and checks the kernel's requests, and the GL throttle
decisions it reported just before, against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.config import GLPolicerConfig
from repro.core.arbitration import Request
from repro.faults import FaultPlan, crosspoint_dead, input_stall, resolve_injector
from repro.switch.buffers import InputPort
from repro.switch.simulator import Simulation
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.patterns import fig4_workload

from tests.test_array_kernel_parity import SCENARIOS, _paper_config, _scenario

HORIZON = 3_000


def _fresh(
    sim: Simulation, output: int, now: int, injector
) -> Tuple[List[Request], List[int], bool]:
    """Requests, GL throttle decisions and eligibility from the ports' state."""
    policer = getattr(sim.switch.arbiters[output], "gl_policer", None)
    allow_gl = policer is None or policer.eligible(now)
    requests: List[Request] = []
    denied: List[int] = []
    for port in sim.switch.inputs:
        if port.busy_until > now:
            continue
        if injector is not None and (
            injector.stalled(port.port, now)
            or injector.crosspoint_dead(port.port, output)
        ):
            continue
        head = port.head_for_output(output, allow_gl=allow_gl)
        if not allow_gl and port.gl_head_for(output) is not None:
            denied.append(port.port)
        if head is None:
            continue
        requests.append(
            Request(
                input_port=port.port,
                traffic_class=head.traffic_class,
                packet_flits=head.flits,
                queued_flits=port.total_occupancy_flits,
                arrival_cycle=(
                    head.injected_cycle
                    if head.injected_cycle is not None
                    else head.created_cycle
                ),
            )
        )
    return requests, denied, allow_gl


class _CheckedArbiter:
    """Forwards to one output's arbiter; checks every ``select`` call."""

    def __init__(
        self, inner, output: int, sim: Simulation, injector, seen: Dict[str, int]
    ) -> None:
        self._inner = inner
        self._output = output
        self._sim = sim
        self._injector = injector
        self._seen = seen
        self._throttled: List[int] = []
        policer = getattr(inner, "gl_policer", None)
        if policer is not None:
            note = policer.note_throttled

            def recording(
                now: Optional[int] = None, input_port: Optional[int] = None
            ) -> None:
                self._throttled.append(input_port)
                note(now, input_port)

            policer.note_throttled = recording

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def select(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        expected, denied, allow_gl = _fresh(
            self._sim, self._output, now, self._injector
        )
        assert list(requests) == expected, (now, self._output)
        assert self._throttled == denied, (now, self._output)
        self._seen["selects"] += 1
        self._seen["allow" if allow_gl else "deny"] += 1
        winner = self._inner.select(requests, now)
        self._throttled.clear()  # the arbiter's own demotion notes
        return winner


def _checked_run(config, workload, plan, horizon: int) -> Dict[str, int]:
    sim = Simulation(config, workload, seed=1, fault_plan=plan)
    injector = resolve_injector(plan)
    seen = {"selects": 0, "allow": 0, "deny": 0}
    arbiters = sim.switch.arbiters
    for o in range(len(arbiters)):
        arbiters[o] = _CheckedArbiter(arbiters[o], o, sim, injector, seen)
    result = sim.run(horizon)
    assert result.grants > 0
    sim.switch.audit_occupancy()
    return seen


@pytest.mark.parametrize("name", SCENARIOS)
def test_reused_requests_equal_fresh_ones_on_parity_scenarios(name):
    horizon = 600 if name == "r128" else HORIZON
    config, workload, plan = _scenario(name, horizon)
    seen = _checked_run(config, workload, plan, horizon)
    assert seen["selects"] > 0


def _gl_mix(radix: int) -> Workload:
    workload = Workload(name="gl-mix")
    workload.add(gl_flow(0, 0, packet_length=2, inject_rate=None))
    workload.add(gl_flow(1, 0, packet_length=1, inject_rate=0.2))
    workload.add(gl_flow(3, 1, packet_length=2, inject_rate=0.1))
    workload.add(gb_flow(1, 0, reserved_rate=0.4, packet_length=4, inject_rate=None))
    workload.add(gb_flow(2, 0, reserved_rate=0.3, packet_length=4, inject_rate=0.2))
    workload.add(
        gb_flow(3, 0, reserved_rate=0.1, packet_length=(2, 4), inject_rate=None)
    )
    workload.add(be_flow(2, 1, packet_length=2, inject_rate=0.3))
    workload.add(be_flow(0, radix - 1, packet_length=4, inject_rate=None))
    return workload


@pytest.mark.parametrize("voq", [False, True], ids=["classic", "voq"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "stall-dead"])
def test_reuse_tracks_flipping_gl_eligibility(voq, faulted):
    """A policed GL mix whose eligibility flips many times, in both port
    modes, with and without stalled inputs and a dead crosspoint."""
    radix = 4
    config = _paper_config(
        radix=radix,
        channel_bits=64,
        voq=voq,
        gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=32),
    )
    plan = None
    if faulted:
        plan = FaultPlan(
            seed=2,
            faults=(
                input_stall(0, start=400, duration=300),
                input_stall(3, start=1_500, duration=200),
                crosspoint_dead(2, 1),
            ),
        )
    seen = _checked_run(config, _gl_mix(radix), plan, HORIZON)
    assert seen["allow"] > 50 and seen["deny"] > 50, seen


def test_reuse_serves_most_hotspot_lookups(monkeypatch):
    """On the saturating Fig. 4 hotspot only the last winner's input
    changes between wakes: one fresh lookup for it and one for the granted
    packet is all a grant costs, against one per contender without reuse."""
    calls = [0]
    original = InputPort.head_for_output

    def counted(self, output, allow_gl=True):
        calls[0] += 1
        return original(self, output, allow_gl)

    monkeypatch.setattr(InputPort, "head_for_output", counted)
    config = _paper_config()
    result = Simulation(config, fig4_workload(inject_rate=None), seed=1).run(HORIZON)
    assert calls[0] <= 2 * result.grants + 2 * config.radix
