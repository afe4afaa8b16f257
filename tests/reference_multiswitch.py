"""A deliberately naive per-cycle reference for the two-stage composition.

Used only by tests, as ``reference_simulator.py`` is for the single switch:
it advances one cycle at a time with no event skipping and restates the
documented semantics of :class:`~repro.multiswitch.MultiStageSimulation`.
Every cycle it does, in this order:

1. arrivals: each scheduled flow's packet is created (ids in creation
   order) and queues behind its flow's backlog, if any, else enters its
   host's VOQ for the destination group, else starts a backlog;
2. link deliveries reach the egress downlink FIFOs (a dropped packet
   releases the space reserved for it);
3. every backlog is retried (flows in the order they most recently became
   backlogged) and every saturating VOQ is topped up, its flows taking
   turns from a round-robin cursor;
4. counter bit-flips hit the ingress aggregates;
5. ingress arbitration per (group, uplink), then egress arbitration per
   (group, output), with the production ``SSVCCore``. A grant's freed VOQ
   space admits at once: step 3 runs again after every ingress grant.

If the production event-driven simulator is cycle-exact, its grants match
these grant for grant, packet ids included. Circuit fault kinds are
refused (:class:`ReferenceRefusal`); behavioural ones are modelled, with
the plan's keyed-hash decisions read from a ``FaultInjector``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import QoSConfig
from repro.core.ssvc import SSVCCore
from repro.faults import FaultKind, FaultPlan, FaultInjector
from repro.multiswitch.simulator import ComposedFlow
from repro.multiswitch.topology import ClosTopology
from repro.obs.probe import Probe
from repro.switch.flit import Packet
from repro.traffic.generators import BernoulliInjection
from repro.types import FlowId

#: (cycle, group, uplink, host-in-group, packet_id)
IngressGrant = Tuple[int, int, int, int, int]
#: (cycle, group, output, source group, packet_id)
EgressGrant = Tuple[int, int, int, int, int]

_CIRCUIT_KINDS = {FaultKind.BITLINE_STUCK, FaultKind.BITLINE_LEAK, FaultKind.SENSE_FLAKY}


class GrantRecorder(Probe):
    """Keeps the simulator's grant events in the reference's tuple shapes."""

    trace = True

    def __init__(self) -> None:
        self.ingress: List[IngressGrant] = []
        self.egress: List[EgressGrant] = []

    def event(self, kind: str, cycle: int, **fields: Any) -> None:
        if kind == "ingress_grant":
            self.ingress.append(
                (cycle, fields["group"], fields["uplink"], fields["host"], fields["packet_id"])
            )
        elif kind == "egress_grant":
            self.egress.append(
                (cycle, fields["group"], fields["output"], fields["source_group"],
                 fields["packet_id"])
            )

    def deliveries(self, topology: ClosTopology) -> Dict[Tuple[int, int], List[int]]:
        """Each (src, dst) flow's delivered packet ids, in delivery order."""
        hosts = topology.hosts_per_group
        src = {pid: group * hosts + host for _, group, _, host, pid in self.ingress}
        flows: Dict[Tuple[int, int], List[int]] = {}
        for _, group, output, _, pid in self.egress:
            flows.setdefault((src[pid], group * hosts + output), []).append(pid)
        return flows


class ReferenceRefusal(Exception):
    """The reference does not model this input."""


@dataclass
class ReferenceResult:
    """Grant schedules and per-flow deliveries of one reference run.

    ``max_backlogged_voqs`` is the most VOQs of one host that had a
    backlog at the same time; ``shared_saturating_voqs`` counts VOQs fed
    by two or more saturating flows. Tests read both to show a case
    exercised the paths they cover.
    """

    ingress: List[IngressGrant] = field(default_factory=list)
    egress: List[EgressGrant] = field(default_factory=list)
    delivered: Dict[FlowId, int] = field(default_factory=dict)
    max_backlogged_voqs: int = 0
    shared_saturating_voqs: int = 0


def naive_two_hop(
    topology: ClosTopology,
    flows: List[ComposedFlow],
    horizon: int,
    qos: Optional[QoSConfig] = None,
    voq_capacity_flits: int = 32,
    downlink_capacity_flits: int = 32,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
) -> ReferenceResult:
    """Simulate the composition cycle by cycle; see the module docstring."""
    qos = qos if qos is not None else QoSConfig()
    topo = topology
    hosts = topo.hosts_per_group
    injector: Optional[FaultInjector] = None
    if fault_plan:
        for spec in fault_plan.faults:
            if spec.kind in _CIRCUIT_KINDS:
                raise ReferenceRefusal(f"{spec.kind.value} is a circuit fault")
            if spec.input_port is not None and not 0 <= spec.input_port < topo.num_hosts:
                raise ReferenceRefusal(f"no host {spec.input_port}")
            if spec.output is not None and not 0 <= spec.output < topo.groups:
                raise ReferenceRefusal(f"no group {spec.output}")
        injector = FaultInjector(fault_plan)

    # QoS state: one core per ingress (group, uplink) over the group's
    # hosts, one per egress (group, output) over the source groups. A
    # reservation is the sum of its flows' rates; the last flow of an
    # aggregate sets its packet length.
    ingress = [[SSVCCore(qos, hosts) for _ in range(topo.groups)] for _ in range(topo.groups)]
    egress = [[SSVCCore(qos, topo.groups) for _ in range(hosts)] for _ in range(topo.groups)]
    rates: Dict[Tuple[SSVCCore, int], float] = {}
    lengths: Dict[Tuple[SSVCCore, int], int] = {}
    for f in flows:
        gs, gd = topo.group_of(f.src), topo.group_of(f.dst)
        for key in (
            (ingress[gs][gd], topo.local_index(f.src)),
            (egress[gd][topo.local_index(f.dst)], gs),
        ):
            rates[key] = rates.get(key, 0.0) + f.rate
            lengths[key] = f.packet_flits
    for (core, requester), rate in rates.items():
        core.register_flow(requester, min(rate, 1.0), lengths[(core, requester)])

    # Arrival schedules: one spawned seed per flow, saturating flows too.
    children = np.random.SeedSequence(seed).spawn(len(flows))
    arrivals: Dict[int, List[int]] = {}
    for index, (f, child) in enumerate(zip(flows, children)):
        if f.inject_rate is None:
            continue
        times = BernoulliInjection(f.inject_rate).arrival_times(
            horizon, f.packet_flits, np.random.default_rng(child)
        )
        for t in times.tolist():
            arrivals.setdefault(t, []).append(index)

    def voq_key(f: ComposedFlow) -> Tuple[int, int]:
        return (f.src, topo.group_of(f.dst))

    voqs: Dict[Tuple[int, int], Deque[Packet]] = {
        (host, g): deque() for host in range(topo.num_hosts) for g in range(topo.groups)
    }

    def fits(key: Tuple[int, int], flits: int) -> bool:
        return sum(p.flits for p in voqs[key]) + flits <= voq_capacity_flits

    saturating: Dict[Tuple[int, int], List[ComposedFlow]] = {}
    for f in flows:
        if f.inject_rate is None:
            saturating.setdefault(voq_key(f), []).append(f)
    cursor = {key: 0 for key in saturating}
    backlog: Dict[FlowId, Deque[Packet]] = {}
    next_id = 0
    result = ReferenceResult(
        delivered={f.flow_id: 0 for f in flows},
        shared_saturating_voqs=sum(len(v) > 1 for v in saturating.values()),
    )

    def create(f: ComposedFlow, now: int) -> Packet:
        nonlocal next_id
        packet = Packet(f.flow_id, f.packet_flits, now, packet_id=next_id)
        next_id += 1
        return packet

    def admit(now: int) -> None:
        # Step 3: retry every backlog, then top up every saturating VOQ.
        for flow_id, queue in list(backlog.items()):
            key = (flow_id.src, topo.group_of(flow_id.dst))
            while queue and fits(key, queue[0].flits):
                voqs[key].append(queue.popleft())
            if not queue:
                del backlog[flow_id]
        for key, members in saturating.items():
            progress = True
            while progress:
                progress = False
                start = cursor[key]
                for step in range(len(members)):
                    pos = (start + step) % len(members)
                    if fits(key, members[pos].packet_flits):
                        voqs[key].append(create(members[pos], now))
                        cursor[key] = (pos + 1) % len(members)
                        progress = True

    host_busy = [0] * topo.num_hosts
    uplink_busy = [[0] * topo.groups for _ in range(topo.groups)]
    # fifo[gd][gs] is the downlink FIFO shared by every flow from group gs
    # into group gd; reserved[gd][gs] its occupancy, in-flight packets
    # included.
    fifo: List[List[Deque[Packet]]] = [
        [deque() for _ in range(topo.groups)] for _ in range(topo.groups)
    ]
    reserved = [[0] * topo.groups for _ in range(topo.groups)]
    downlink_busy = [[0] * topo.groups for _ in range(topo.groups)]
    out_busy = [[0] * hosts for _ in range(topo.groups)]
    in_flight: List[Tuple[int, Packet, int, int]] = []  # (arrive, pkt, gd, gs)

    for now in range(horizon):
        # 1. Arrivals, behind any backlog of their flow.
        for index in arrivals.get(now, ()):
            f = flows[index]
            packet = create(f, now)
            queue = backlog.get(f.flow_id)
            if queue:
                queue.append(packet)
            elif fits(voq_key(f), packet.flits):
                voqs[voq_key(f)].append(packet)
            else:
                backlog[f.flow_id] = deque([packet])
        # 2. Link deliveries, in grant order.
        for entry in [e for e in in_flight if e[0] == now]:
            in_flight.remove(entry)
            _, packet, gd, gs = entry
            if injector is not None and injector.drop_delivery(gd, packet.packet_id, now):
                reserved[gd][gs] -= packet.flits
            else:
                fifo[gd][gs].append(packet)
        # 3. Retry backlogs, top up saturating VOQs.
        admit(now)
        waiting = {}
        for flow_id in backlog:
            waiting.setdefault(flow_id.src, set()).add(topo.group_of(flow_id.dst))
        for groups_waiting in waiting.values():
            result.max_backlogged_voqs = max(result.max_backlogged_voqs, len(groups_waiting))
        # 4. Counter bit-flips.
        for spec in fault_plan.faults if fault_plan else ():
            if spec.kind is FaultKind.COUNTER_BITFLIP and spec.at_cycle == now:
                ingress[topo.group_of(spec.input_port)][spec.output].inject_counter_bitflip(
                    topo.local_index(spec.input_port), spec.bit, now
                )
        # 5a. Ingress arbitration.
        for gs in range(topo.groups):
            for gd in range(topo.groups):
                if uplink_busy[gs][gd] > now:
                    continue
                core = ingress[gs][gd]
                candidates = []
                for local in range(hosts):
                    host = gs * hosts + local
                    queue = voqs[(host, gd)]
                    if host_busy[host] > now or not queue:
                        continue
                    if injector is not None and (
                        injector.stalled(host, now) or injector.crosspoint_dead(host, gd)
                    ):
                        continue
                    if reserved[gd][gs] + queue[0].flits > downlink_capacity_flits:
                        continue
                    candidates.append(local)
                if not candidates:
                    continue
                winner = core.select(candidates, now)
                core.commit(winner, now)
                packet = voqs[(gs * hosts + winner, gd)].popleft()
                done = now + 1 + packet.flits
                uplink_busy[gs][gd] = done
                host_busy[gs * hosts + winner] = done
                reserved[gd][gs] += packet.flits
                in_flight.append((done + topo.link_latency, packet, gd, gs))
                result.ingress.append((now, gs, gd, winner, packet.packet_id))
                admit(now)
        # 5b. Egress arbitration: a downlink's head requests its output.
        for gd in range(topo.groups):
            requesting: Dict[int, List[int]] = {}
            for gs in range(topo.groups):
                if downlink_busy[gd][gs] > now or not fifo[gd][gs]:
                    continue
                out = topo.local_index(fifo[gd][gs][0].dst)
                if out_busy[gd][out] <= now:
                    requesting.setdefault(out, []).append(gs)
            for out, sources in requesting.items():
                core = egress[gd][out]
                winner = core.select(sources, now)
                core.commit(winner, now)
                packet = fifo[gd][winner].popleft()
                reserved[gd][winner] -= packet.flits
                done = now + 1 + packet.flits
                out_busy[gd][out] = done
                downlink_busy[gd][winner] = done
                result.egress.append((now, gd, out, winner, packet.packet_id))
                result.delivered[packet.flow] += 1
                if injector is not None and injector.duplicate_delivery(
                    gd, packet.packet_id, now
                ):
                    result.delivered[packet.flow] += 1
    return result
