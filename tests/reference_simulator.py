"""A deliberately naive per-cycle reference simulator.

Used only by tests: it advances one cycle at a time with no event skipping,
applying exactly the documented switch semantics — arrivals enqueue (with
source-side overflow), every idle output arbitrates over the head-of-line
requests of free inputs in rotating order, a grant occupies channel and
input for ``arbitration_cycles + flits`` cycles. An output whose arbiter
has a GL policer asks it every cycle whether GL keeps its priority, and
offers a throttled GL head last, as the kernel does. If the production
event-driven kernel is cycle-exact, its grant schedule must match this one
grant for grant.

Saturating sources and packet chaining are intentionally unsupported — the
reference covers the scheduled-arrival core semantics; chaining and top-up
behaviours have their own hand-traced tests.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.config import SwitchConfig
from repro.core.arbitration import Request
from repro.qos.base import OutputArbiter
from repro.switch.buffers import InputPort
from repro.switch.flit import Packet
from repro.types import FlowId

#: A grant record: (cycle, output, input, packet_flits).
GrantRecord = Tuple[int, int, int, int]


def naive_simulate(
    config: SwitchConfig,
    arrivals: List[Tuple[int, FlowId, int]],
    arbiters: List[OutputArbiter],
    horizon: int,
) -> List[GrantRecord]:
    """Cycle-by-cycle simulation; returns the grant schedule.

    Args:
        config: switch parameters (``packet_chaining`` must be off).
        arrivals: (creation_cycle, flow, flits) triples, any order.
        arbiters: one arbiter per output (pre-configured/registered).
        horizon: cycles to simulate.
    """
    assert not config.packet_chaining, "reference does not model chaining"
    radix = config.radix
    inputs = [InputPort(i, config) for i in range(radix)]
    out_busy = [0] * radix
    overflow: Dict[FlowId, Deque[Packet]] = {}
    grants: List[GrantRecord] = []

    def drain_overflow(now: int) -> None:
        # Source queues exist only while backlogged: a drained flow leaves
        # the dict, and a flow that overflows again rejoins at the back, so
        # flows drain in the order they (most recently) became backlogged.
        # The production kernel implements the same contract.
        for flow, queue in list(overflow.items()):
            port = inputs[flow.src]
            while queue and port.try_inject(queue[0], now):
                queue.popleft()
            if not queue:
                del overflow[flow]

    by_cycle: Dict[int, List[Packet]] = {}
    for created, flow, flits in sorted(arrivals, key=lambda a: (a[0], str(a[1]))):
        by_cycle.setdefault(created, []).append(
            Packet(flow=flow, flits=flits, created_cycle=created)
        )

    for now in range(horizon):
        # 1. Arrivals (behind any already-overflowed packet of the flow).
        for packet in by_cycle.get(now, ()):  # noqa: B905
            port = inputs[packet.src]
            queue = overflow.get(packet.flow)
            if queue:
                queue.append(packet)
            elif not port.try_inject(packet, now):
                overflow.setdefault(packet.flow, deque()).append(packet)
        # 2. Drain overflow.
        drain_overflow(now)
        # 3. Arbitrate idle outputs, rotating start by `now`.
        for k in range(radix):
            o = (now + k) % radix
            if out_busy[o] > now:
                continue
            arbiter = arbiters[o]
            policer = getattr(arbiter, "gl_policer", None)
            allow_gl = policer is None or policer.eligible(now)
            requests = []
            for port in inputs:
                if port.busy_until > now:
                    continue
                head = port.head_for_output(o, allow_gl=allow_gl)
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
            if not requests:
                continue
            winner = arbiter.select(requests, now)
            if winner is None:
                continue
            arbiter.commit(winner, now)
            port = inputs[winner.input_port]
            packet = port.head_for_output(o, allow_gl=allow_gl)
            port.pop_packet(packet)
            arb_cycles = (
                arbiter.arbitration_cycles
                if arbiter.arbitration_cycles is not None
                else config.arbitration_cycles
            )
            delivered = now + arb_cycles + packet.flits
            out_busy[o] = delivered
            port.busy_until = delivered
            grants.append((now, o, winner.input_port, packet.flits))
            # 4. Freed buffer space admits overflow immediately.
            drain_overflow(now)
    return grants
