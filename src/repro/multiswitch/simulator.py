"""Cycle-accurate two-hop simulator for the composed network.

Faithful to the single-switch kernel's timing (1-cycle re-arbitration,
``L`` data cycles per packet) with the composition-specific mechanics the
paper's Section 4.4 calls out:

* **Aggregate QoS state** — each ingress crosspoint serves every flow from
  its host to an entire destination group, so SSVC reservations exist only
  per (host, destination-group) aggregate; flows inside an aggregate are
  *not* isolated from each other. Likewise each egress output reserves per
  source-group downlink.
* **Shared downlink buffers** — an egress input port is one FIFO shared by
  every flow arriving over that downlink ("it becomes increasingly
  difficult to maintain separation between flows in buffers"); its head can
  block packets behind it that target other outputs.
* **Credit backpressure** — an ingress uplink may only grant a packet when
  the destination egress FIFO has space reserved for it, so the shared
  buffer conflicts propagate back into ingress arbitration.

Only Guaranteed Bandwidth traffic is modeled — the composition's QoS
behaviour is the question; BE/GL compose exactly as in the single switch.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..config import QoSConfig
from ..core.ssvc import SSVCCore
from ..errors import ConfigError, SimulationError, TrafficError
from ..faults import FaultInjector, FaultKind, FaultPlan, resolve_injector
from ..metrics.counters import StatsCollector
from ..obs.probe import Probe, resolve_hooks
from ..switch.buffers import FlitBuffer
from ..switch.flit import Packet, fresh_packet_ids
from ..switch.simulator import _arrival_stream, _OfferedLoad, _SourceBacklog, Waiting
from ..traffic.generators import BernoulliInjection, FlowSource, SaturatingInjection
from ..types import FlowId, TrafficClass
from .topology import ClosTopology


def _checked_multistage_injector(
    plan: Optional[FaultPlan], topology: ClosTopology
) -> Optional[FaultInjector]:
    """Resolve a fault plan against the composed network's address space.

    Behavioral fault targets read differently here: ``input_port`` is a
    *global host* index, ``output`` a *destination group* — a dead
    crosspoint kills one (host, uplink) ingress pair, a counter bit-flip
    hits the matching ingress aggregate, and the drop/dup output filter
    selects the group-to-group link. Circuit kinds are rejected as in the
    single-switch kernels.
    """
    injector = resolve_injector(plan)
    if injector is None:
        return None
    if injector.has_circuit_faults:
        raise ConfigError(
            "bitline/sense faults model the arbitration circuit; inject them "
            "into repro.circuit.ArbitrationFabric, not the composed network"
        )
    for spec in injector.plan.faults:
        if spec.input_port is not None and not 0 <= spec.input_port < topology.num_hosts:
            raise ConfigError(
                f"{spec.kind.value} fault targets host {spec.input_port} "
                f"outside the {topology.num_hosts}-host network"
            )
        if spec.output is not None and not 0 <= spec.output < topology.groups:
            raise ConfigError(
                f"{spec.kind.value} fault targets group {spec.output} "
                f"outside the {topology.groups}-group network"
            )
    return injector


@dataclass(frozen=True)
class ComposedFlow:
    """One end-to-end GB flow through the composition.

    Attributes:
        src: source host.
        dst: destination host.
        rate: end-to-end reserved fraction (of a one-flit/cycle channel).
        packet_flits: packet length.
        inject_rate: offered flits/cycle; ``None`` saturates.
    """

    src: int
    dst: int
    rate: float
    packet_flits: int = 8
    inject_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise TrafficError(f"rate must be in (0, 1], got {self.rate}")
        if self.packet_flits < 1:
            raise TrafficError(f"packet_flits must be >= 1, got {self.packet_flits}")
        if self.inject_rate is not None and not 0.0 < self.inject_rate <= 1.0:
            raise TrafficError(f"inject_rate must be in (0, 1], got {self.inject_rate}")

    @property
    def flow_id(self) -> FlowId:
        """The flow's identity (always GB class)."""
        return FlowId(self.src, self.dst, TrafficClass.GB)


@dataclass
class MultiStageResult:
    """Outcome of a composed-network run.

    Attributes:
        stats: per-flow statistics (latency is end-to-end, creation to
            final egress delivery).
        horizon: simulated cycles.
        grants_ingress / grants_egress: arbitration grants per stage.
        hol_blocked_cycles: cycles egress arbitration found a downlink head
            blocked behind a busy output while other outputs sat idle —
            the measurable footprint of the shared-buffer conflict.
    """

    stats: StatsCollector
    horizon: int
    grants_ingress: int
    grants_egress: int
    hol_blocked_cycles: int

    def accepted_rate(self, src: int, dst: int) -> float:
        """End-to-end delivered flits/cycle for one flow."""
        return self.stats.accepted_rate(FlowId(src, dst, TrafficClass.GB))

    def mean_latency(self, src: int, dst: int) -> float:
        """End-to-end mean latency for one flow."""
        return self.stats.flow_stats(FlowId(src, dst, TrafficClass.GB)).latency.mean


class _HostPort:
    """Ingress-side host port: one VOQ per uplink (destination group).

    A packet that does not fit its VOQ waits in the run's
    :class:`~repro.switch.simulator._SourceBacklog`, keyed by that VOQ, as
    in the single switch.
    """

    def __init__(self, topology: ClosTopology, voq_capacity: int) -> None:
        self.voqs = [FlitBuffer(voq_capacity) for _ in range(topology.groups)]
        self._uplink_for = topology.uplink_for
        self.busy_until = 0

    def try_inject(self, packet: Packet, now: int) -> bool:
        """Admit ``packet`` into its VOQ if it fits; stamp its injection."""
        if not self.voqs[self._uplink_for(packet.dst)].try_push(packet):
            return False
        packet.injected_cycle = now
        return True


class _DownlinkPort:
    """Egress-side input: one *shared* FIFO (no per-flow separation)."""

    def __init__(self, capacity_flits: int) -> None:
        self.fifo: Deque[Packet] = deque()
        self.occupancy = 0  # includes space reserved for in-flight packets
        self.capacity = capacity_flits
        self.busy_until = 0

    def reserve(self, flits: int) -> bool:
        if self.occupancy + flits > self.capacity:
            return False
        self.occupancy += flits
        return True

    def deliver(self, packet: Packet) -> None:
        self.fifo.append(packet)

    def pop(self) -> Packet:
        packet = self.fifo.popleft()
        self.occupancy -= packet.flits
        return packet


class MultiStageSimulation:
    """Simulate GB flows through a two-stage Clos of Swizzle Switches.

    Args:
        topology: network shape.
        flows: end-to-end flows. Aggregate reservations are derived by
            summing flow rates per ingress crosspoint and per egress
            (source-group, output) pair; oversubscribed aggregates raise.
        qos: SSVC parameters used at both stages.
        voq_capacity_flits: ingress per-uplink VOQ depth.
        downlink_capacity_flits: shared egress FIFO depth per downlink.
        seed: RNG seed for scheduled sources.
        probe: optional :class:`~repro.obs.probe.Probe` fed per-stage
            counters (``multiswitch.*`` namespace).
        fault_plan: optional :class:`~repro.faults.FaultPlan`; behavioral
            fault targets are re-addressed for the composition — see
            :func:`_checked_multistage_injector`. Packet drops model a
            corrupted group-to-group link transfer (the packet vanishes in
            flight and its reserved egress buffer space is released).
    """

    def __init__(
        self,
        topology: ClosTopology,
        flows: List[ComposedFlow],
        qos: Optional[QoSConfig] = None,
        voq_capacity_flits: int = 32,
        downlink_capacity_flits: int = 32,
        seed: int = 0,
        probe: Optional[Probe] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not flows:
            raise TrafficError("at least one flow is required")
        seen = set()
        for flow in flows:
            topology.group_of(flow.src)  # validates range
            topology.group_of(flow.dst)
            key = (flow.src, flow.dst)
            if key in seen:
                raise TrafficError(f"duplicate flow {key}")
            seen.add(key)
        self.topology = topology
        self.flows = list(flows)
        self.qos = qos if qos is not None else QoSConfig()
        self.voq_capacity = voq_capacity_flits
        self.downlink_capacity = downlink_capacity_flits
        self.seed = seed
        self.probe = probe
        self.fault_plan = fault_plan
        self._ran = False
        self._build_qos_state()

    # ----------------------------------------------------------------- setup

    def _build_qos_state(self) -> None:
        topo = self.topology
        # Ingress: one SSVC core per (group, uplink) output, arbitrating
        # among the group's host ports. Reservation = aggregate of the
        # host's flows toward the uplink's destination group.
        self.ingress_cores: List[List[SSVCCore]] = [
            [SSVCCore(self.qos, topo.hosts_per_group) for _ in range(topo.groups)]
            for _ in range(topo.groups)
        ]
        # Egress: one SSVC core per (group, host output), arbitrating among
        # downlink ports. Reservation = aggregate per source group.
        self.egress_cores: List[List[SSVCCore]] = [
            [SSVCCore(self.qos, topo.groups) for _ in range(topo.hosts_per_group)]
            for _ in range(topo.groups)
        ]
        ingress_agg: Dict[Tuple[int, int, int], float] = {}
        egress_agg: Dict[Tuple[int, int, int], float] = {}
        # Kept per stage: an ingress key (gs, gd, local_src) and an egress
        # key (gd, local_dst, gs) can be the same triple.
        ingress_flits: Dict[Tuple[int, int, int], int] = {}
        egress_flits: Dict[Tuple[int, int, int], int] = {}
        for flow in self.flows:
            gs, gd = topo.group_of(flow.src), topo.group_of(flow.dst)
            local_src = topo.local_index(flow.src)
            local_dst = topo.local_index(flow.dst)
            key_in = (gs, gd, local_src)
            key_eg = (gd, local_dst, gs)
            ingress_agg[key_in] = ingress_agg.get(key_in, 0.0) + flow.rate
            egress_agg[key_eg] = egress_agg.get(key_eg, 0.0) + flow.rate
            ingress_flits[key_in] = flow.packet_flits
            egress_flits[key_eg] = flow.packet_flits
        for (gs, gd, local_src), rate in ingress_agg.items():
            if rate > 1.0 + 1e-9:
                raise TrafficError(
                    f"ingress aggregate host {local_src} of group {gs} -> group "
                    f"{gd} oversubscribed ({rate:.3f})"
                )
            self.ingress_cores[gs][gd].register_flow(
                local_src, min(rate, 1.0), ingress_flits[(gs, gd, local_src)]
            )
        for (gd, local_dst, gs), rate in egress_agg.items():
            if rate > 1.0 + 1e-9:
                raise TrafficError(
                    f"egress aggregate group {gs} -> host output {local_dst} of "
                    f"group {gd} oversubscribed ({rate:.3f})"
                )
            self.egress_cores[gd][local_dst].register_flow(
                gs, min(rate, 1.0), egress_flits[(gd, local_dst, gs)]
            )

    def build_sources(
        self, horizon: int, packet_ids: Optional[Iterator[int]] = None
    ) -> List[FlowSource]:
        """One packet source per flow, in flow order, as :meth:`run` builds them.

        Each flow draws from its own spawned seed, and all of them share
        one packet-id stream (replayable traces), fresh unless
        ``packet_ids`` is given; a saturating flow's schedule is empty,
        since top-up feeds it.
        """
        seeds = np.random.SeedSequence(self.seed).spawn(len(self.flows))
        if packet_ids is None:
            packet_ids = fresh_packet_ids()
        return [
            FlowSource(
                flow=flow.flow_id,
                process=(
                    SaturatingInjection()
                    if flow.inject_rate is None
                    else BernoulliInjection(flow.inject_rate)
                ),
                packet_length=flow.packet_flits,
                horizon=horizon,
                rng=np.random.default_rng(child),
                id_source=packet_ids,
            )
            for flow, child in zip(self.flows, seeds)
        ]

    # ------------------------------------------------------------------- run

    def run(self, horizon: int, warmup_cycles: Optional[int] = None) -> MultiStageResult:
        """Simulate ``horizon`` cycles end-to-end.

        Raises:
            SimulationError: on a bad horizon, or when this simulation
                already ran: its SSVC cores hold that run's counters and
                LRG state, so build a new one for another run.
        """
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        if self._ran:
            raise SimulationError(
                "this simulation already ran; its SSVC cores hold that "
                "run's counters and LRG state, so build a new "
                "MultiStageSimulation for another run"
            )
        self._ran = True
        warmup = warmup_cycles if warmup_cycles is not None else horizon // 10
        topo = self.topology
        stats = StatsCollector(warmup_cycles=warmup)

        hosts = [_HostPort(topo, self.voq_capacity) for _ in range(topo.num_hosts)]
        uplink_busy = [[0] * topo.groups for _ in range(topo.groups)]
        downlinks = [
            [_DownlinkPort(self.downlink_capacity) for _ in range(topo.groups)]
            for _ in range(topo.groups)
        ]
        egress_out_busy = [[0] * topo.hosts_per_group for _ in range(topo.groups)]

        packet_ids = fresh_packet_ids()
        sources = self.build_sources(horizon, packet_ids)
        # Each source's host port and the VOQ its flow lands in, and the
        # saturating sources with their packet lengths, grouped by that VOQ
        # in flow order, with the VOQ's round-robin cursor.
        landing: List[Tuple[FlowSource, _HostPort, FlitBuffer]] = []
        saturating: Dict[FlitBuffer, Tuple[_HostPort, List[Tuple[FlowSource, int]]]] = {}
        for flow, source in zip(self.flows, sources):
            port = hosts[flow.src]
            voq = port.voqs[topo.uplink_for(flow.dst)]
            landing.append((source, port, voq))
            if source.saturating:
                saturating.setdefault(voq, (port, []))[1].append(
                    (source, flow.packet_flits)
                )
        sat_cursor = dict.fromkeys(saturating, 0)
        # Scheduled arrivals, presorted once; ``horizon`` ends the stream.
        arrival_times, arrival_sources = _arrival_stream(
            [source.schedule for source in sources], horizon
        )
        next_arrival = arrival_times[0]
        cursor = 0
        # Offered load is counted per flow, not per arrival.
        offered = _OfferedLoad(sources, stats, horizon)
        lengths = offered.lengths
        next_touch = offered.touch(-1)
        # A packet that does not fit its VOQ waits in its flow's source
        # queue; only a grant frees VOQ space, and only that VOQ is retried.
        overflow = _SourceBacklog()
        source_queues: List[Deque[Waiting]] = [deque() for _ in sources]
        link_heap: List[Tuple[int, int, Packet, int, int]] = []  # (t, seq, pkt, gd, gs)
        link_seq = 0

        grants_ingress = 0
        grants_egress = 0
        hol_blocked = 0
        probe = self.probe
        # Hooks resolved once; counters batch in locals and flush after the
        # horizon (only trace events are emitted inline — they are ordered).
        hooks = resolve_hooks(probe)
        event_hook = hooks.event
        wakes = 0
        heap_pushes = 0
        ingress_arbitrations = 0
        egress_arbitrations = 0

        # Fault injection (same hoisting pattern as the single-switch
        # kernels; decisions are keyed-hash draws, so order-independent).
        injector = _checked_multistage_injector(self.fault_plan, topo)
        faults_stall = injector is not None and injector.has_stalls
        faults_dead = injector is not None and injector.has_dead
        faults_flips = injector is not None and injector.has_flips
        faults_drop = injector is not None and injector.has_drops
        faults_dup = injector is not None and injector.has_dups
        fault_stall_masks = 0
        fault_dead_masks = 0
        fault_flips_applied = 0
        fault_drops = 0
        fault_dups = 0

        wake_heap: List[int] = [0]
        pending = {0}

        def wake(t: int) -> None:
            nonlocal heap_pushes
            if t < horizon and t not in pending:
                heapq.heappush(wake_heap, t)
                pending.add(t)
                heap_pushes += 1

        if injector is not None:
            # Stall boundaries and bit-flip cycles must be wake times, as
            # in the event kernel.
            for t in injector.wake_cycles():
                wake(t)

        def top_up(voq: FlitBuffer, now: int) -> None:
            """Fill a saturating VOQ, its flows taking turns.

            Flows are tried in rotation from the cursor, which moves past
            each flow served, so flows sharing the VOQ interleave their
            packets; the fill stops once no flow's next packet fits.
            """
            port, members = saturating[voq]
            pos = sat_cursor[voq]
            misses = 0
            while misses < len(members):
                source, flits = members[pos]
                pos = (pos + 1) % len(members)
                if voq.occupancy_flits + flits > self.voq_capacity:
                    misses += 1
                    continue
                packet = source.make_packet(now)
                stats.on_created(packet.flow, now, flits)
                port.try_inject(packet, now)
                sat_cursor[voq] = pos
                misses = 0

        # Wake times are the wake heap's entries merged with the arrival
        # stream; a cycle in both is one wake. Unlike the single switch,
        # every arrival cycle stays a wake: egress arbitration counts
        # ``hol_blocked`` once per wake, so skipping one would change it.
        while True:
            if wake_heap and wake_heap[0] <= next_arrival:
                now = heapq.heappop(wake_heap)
                pending.discard(now)
            elif next_arrival < horizon:
                now = next_arrival
            else:
                break
            wakes += 1

            # 1. Scheduled host arrivals, behind their flow's backlog.
            while next_arrival == now:
                index = arrival_sources[cursor]
                entry = (now, next(packet_ids), lengths[index])
                queued = source_queues[index]
                if queued:
                    queued.append(entry)
                else:
                    source, port, voq = landing[index]
                    overflow.offer(port, voq, source.flow, queued, entry, now)
                cursor += 1
                next_arrival = arrival_times[cursor]
            if now >= next_touch:
                next_touch = offered.touch(now)

            # 2. Link deliveries reaching egress FIFOs.
            while link_heap and link_heap[0][0] <= now:
                _, _, packet, gd, gs = heapq.heappop(link_heap)
                if faults_drop and injector.drop_delivery(
                    gd, packet.packet_id, now
                ):
                    # Corrupted link transfer: the packet vanishes in
                    # flight, so the egress buffer space reserved for it
                    # is released (the credit frees an ingress grant).
                    downlinks[gd][gs].occupancy -= packet.flits
                    fault_drops += 1
                    wake(now + 1)
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            fault_kind="packet-drop",
                            group=gd,
                            source_group=gs,
                            packet_id=packet.packet_id,
                        )
                    continue
                downlinks[gd][gs].deliver(packet)

            # 3. The first wake fills every saturating VOQ. After it, VOQ
            #    space frees only at an ingress grant, which refills the
            #    VOQ it popped.
            if wakes == 1:
                for voq in saturating:
                    top_up(voq, now)

            # 3b. Counter bit-flips hit the ingress aggregate's auxVC
            #     counter before any arbitration this cycle.
            if faults_flips:
                for spec in injector.counter_flips_at(now):
                    assert spec.input_port is not None and spec.output is not None
                    self.ingress_cores[topo.group_of(spec.input_port)][
                        spec.output
                    ].inject_counter_bitflip(
                        topo.local_index(spec.input_port), spec.bit, now
                    )
                    fault_flips_applied += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            fault_kind="counter-bitflip",
                            host=spec.input_port,
                            uplink=spec.output,
                            bit=spec.bit,
                        )

            # 4. Ingress arbitration: per (group, uplink).
            for gs in range(topo.groups):
                for gd in range(topo.groups):
                    if uplink_busy[gs][gd] > now:
                        continue
                    core = self.ingress_cores[gs][gd]
                    candidates = []
                    for local in range(topo.hosts_per_group):
                        host = gs * topo.hosts_per_group + local
                        port = hosts[host]
                        head = port.voqs[gd].head()
                        if port.busy_until > now or head is None:
                            continue
                        if faults_stall and injector.stalled(host, now):
                            # A stalled host raises no ingress requests.
                            fault_stall_masks += 1
                            continue
                        if faults_dead and injector.crosspoint_dead(host, gd):
                            # Dead (host, uplink) ingress crosspoint: the
                            # VOQ head blocks until the fault clears.
                            fault_dead_masks += 1
                            continue
                        if not core.is_registered(local):
                            continue
                        # Credit check: space in the egress shared FIFO.
                        if downlinks[gd][gs].occupancy + head.flits > downlinks[gd][gs].capacity:
                            continue
                        candidates.append(local)
                    if not candidates:
                        continue
                    ingress_arbitrations += 1
                    winner = core.select(candidates, now)
                    core.commit(winner, now)
                    port = hosts[gs * topo.hosts_per_group + winner]
                    voq = port.voqs[gd]
                    packet = voq.pop()
                    # Only the popped VOQ gained space: its backlog goes
                    # first, then its saturating flows top it up.
                    if voq in overflow.waiting:
                        overflow.drain(port, voq, now)
                    if voq in saturating:
                        top_up(voq, now)
                    delivered = now + 1 + packet.flits  # 1-cycle arbitration
                    uplink_busy[gs][gd] = delivered
                    port.busy_until = delivered
                    downlinks[gd][gs].reserve(packet.flits)
                    link_seq += 1
                    arrive = delivered + topo.link_latency
                    heapq.heappush(link_heap, (arrive, link_seq, packet, gd, gs))
                    wake(delivered)
                    wake(arrive)
                    grants_ingress += 1
                    if event_hook is not None:
                        event_hook(
                            "ingress_grant",
                            now,
                            group=gs,
                            uplink=gd,
                            host=winner,
                            packet_id=packet.packet_id,
                            flits=packet.flits,
                        )

            # 5. Egress arbitration: per (group, host output). Downlink
            #    heads request only their own target output; a head bound
            #    for a busy output blocks everything behind it (HoL).
            for gd in range(topo.groups):
                requesting: Dict[int, List[int]] = {}
                for gs in range(topo.groups):
                    port = downlinks[gd][gs]
                    if port.busy_until > now or not port.fifo:
                        continue
                    head = port.fifo[0]
                    out = topo.local_index(head.dst)
                    if egress_out_busy[gd][out] > now:
                        if any(
                            egress_out_busy[gd][o] <= now
                            for o in range(topo.hosts_per_group)
                        ):
                            hol_blocked += 1
                        continue
                    requesting.setdefault(out, []).append(gs)
                for out, sources in requesting.items():
                    core = self.egress_cores[gd][out]
                    eligible = [gs for gs in sources if core.is_registered(gs)]
                    if not eligible:
                        continue
                    egress_arbitrations += 1
                    winner = core.select(eligible, now)
                    core.commit(winner, now)
                    packet = downlinks[gd][winner].pop()
                    delivered = now + 1 + packet.flits
                    egress_out_busy[gd][out] = delivered
                    downlinks[gd][winner].busy_until = delivered
                    packet.grant_cycle = now
                    packet.delivered_cycle = delivered
                    stats.on_delivered(packet)
                    if faults_dup and injector.duplicate_delivery(
                        gd, packet.packet_id, now
                    ):
                        stats.on_delivered(packet)
                        fault_dups += 1
                        if event_hook is not None:
                            event_hook(
                                "fault",
                                now,
                                fault_kind="packet-dup",
                                group=gd,
                                output=out,
                                packet_id=packet.packet_id,
                            )
                    wake(delivered)
                    grants_egress += 1
                    if event_hook is not None:
                        event_hook(
                            "egress_grant",
                            now,
                            group=gd,
                            output=out,
                            source_group=winner,
                            packet_id=packet.packet_id,
                            flits=packet.flits,
                            latency=packet.latency,
                        )
                    # Freed FIFO space may unblock an ingress grant; the
                    # credit update is visible from the next cycle.
                    wake(now + 1)

        count_hook = hooks.count
        if count_hook is not None:
            for name, total in (
                ("multiswitch.wakes", wakes),
                ("multiswitch.heap_pushes", heap_pushes),
                ("multiswitch.ingress_arbitrations", ingress_arbitrations),
                ("multiswitch.ingress_grants", grants_ingress),
                ("multiswitch.hol_blocked", hol_blocked),
                ("multiswitch.egress_arbitrations", egress_arbitrations),
                ("multiswitch.egress_grants", grants_egress),
            ):
                if total:
                    count_hook(name, total)
            if injector is not None:
                # faults.* counters exist only under an active plan, so
                # empty-plan runs flush exactly what unfaulted runs do.
                for name, total in (
                    ("faults.stall_masked", fault_stall_masks),
                    ("faults.dead_crosspoint_masked", fault_dead_masks),
                    ("faults.counter_bitflips", fault_flips_applied),
                    ("faults.packet_drops", fault_drops),
                    ("faults.packet_dups", fault_dups),
                ):
                    if total:
                        count_hook(name, total)

        offered.finish()
        stats.finish(horizon)
        return MultiStageResult(
            stats=stats,
            horizon=horizon,
            grants_ingress=grants_ingress,
            grants_egress=grants_egress,
            hol_blocked_cycles=hol_blocked,
        )
