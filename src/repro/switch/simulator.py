"""Event-driven simulation kernel with cycle-exact semantics.

The kernel advances between *wake times* — cycles where something can
happen: a scheduled packet arrival, an output channel (and its sending
input) becoming free, or a retry after a non-work-conserving arbiter
declined to grant. At each wake time it (1) admits arrivals into the input
port buffers (overflow waits in unbounded per-flow source queues — the
source side of the network interface), (2) tops up saturating sources, and
(3) arbitrates every idle output in a rotating order. This produces exactly
the schedule a per-cycle loop would, at a fraction of the cost, because
nothing observable changes between wake times.

Arbitration runs in one of two modes. With per-output arbiters (the
paper's switch) every idle output consults its own
:class:`~repro.qos.base.OutputArbiter` in a rotating order. With an
iterative matching scheduler (:class:`~repro.qos.iterative.
IterativeArbiter` — iSLIP, QPS-r, SW-QPS; requires ``config.voq``) the
kernel instead builds the VOQ backlog of every free input once per wake
time and applies the scheduler's switch-wide matching. Both paths share
one grant-bookkeeping closure so timing, fault accounting, and
observability cannot drift between them.

Timing model (see DESIGN.md): a grant at cycle ``t`` for an ``L``-flit
packet occupies the output channel and the winning input until
``t + arbitration_cycles + L``; with the Swizzle Switch's single
arbitration cycle a saturated channel therefore sustains ``L/(L+1)``
flits/cycle — the 0.89 ceiling of Fig. 4 for 8-flit packets.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..config import SwitchConfig
from ..core.arbitration import Request
from ..errors import ConfigError, SimulationError
from ..faults import FaultInjector, FaultKind, FaultPlan, resolve_injector
from ..metrics.counters import StatsCollector
from ..obs.probe import Probe, resolve_hooks
from ..qos.iterative import IterativeArbiter
from ..types import FlowId, TrafficClass

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from ..traffic.flows import Workload
    from ..traffic.generators import FlowSource
from .buffers import FlitBuffer, InputPort
from .crossbar import ArbiterFactory, SwizzleSwitch
from .events import GrantEvent, PacketDelivered
from .flit import Packet, fresh_packet_ids, skip_packet_ids


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        config: the switch configuration simulated.
        workload_name: label of the workload.
        horizon: cycles simulated.
        warmup_cycles: cycles excluded from measurement.
        stats: per-flow statistics collector (finished).
        output_utilization: delivered flits/cycle per output over the whole
            run (including warmup; per-flow rates in ``stats`` exclude it).
        grants: total arbitration grants performed.
        chained_grants: grants that skipped the arbitration bubble via
            packet chaining (0 unless ``config.packet_chaining``).
        events: grant/delivery trace when event collection was enabled.
        gl_throttle_events: per-output count of (cycle, input) denial
            decisions where the GL policer withheld absolute priority from
            a pending GL head (empty for arbiters without a
            ``gl_policer``). Two distinct GL inputs denied in the same
            cycle count as two events.
        kernel: which engine produced this result (``event``/``flit``).
    """

    config: SwitchConfig
    workload_name: str
    horizon: int
    warmup_cycles: int
    stats: StatsCollector
    output_utilization: Dict[int, float]
    grants: int
    chained_grants: int = 0
    events: List[object] = field(default_factory=list)
    gl_throttle_events: Dict[int, int] = field(default_factory=dict)
    kernel: str = "event"

    def accepted_rate(self, flow: FlowId) -> float:
        """Flow's delivered flits/cycle inside the measurement window."""
        return self.stats.accepted_rate(flow)

    def mean_latency(self, flow: FlowId) -> float:
        """Flow's mean creation-to-delivery latency in cycles."""
        return self.stats.flow_stats(flow).latency.mean

    def max_waiting(self, flow: FlowId) -> int:
        """Flow's maximum injection-to-grant waiting time in cycles."""
        return self.stats.flow_stats(flow).waiting.maximum

    def summary_table(self) -> str:
        """Per-flow offered/accepted/latency summary as an ASCII table."""
        from ..metrics.report import format_table

        cycles = self.stats.measured_cycles
        rows = []
        for flow in sorted(self.stats.flows, key=str):
            stats = self.stats.flow_stats(flow)
            delivered = stats.latency.count
            rows.append(
                (
                    str(flow),
                    stats.offered_rate(cycles),
                    stats.accepted_rate(cycles),
                    stats.latency.mean if delivered else None,
                    stats.latency.p99 if delivered else None,
                )
            )
        return format_table(
            ["flow", "offered", "accepted", "mean lat", "p99 lat"],
            rows,
            title=f"{self.workload_name}: {self.horizon} cycles "
            f"({self.warmup_cycles} warmup)",
        )


#: Step 3b's reuse entry for one (output, input): ``((stamp, allow_gl),
#: gl_denied, request)``.
_ReuseEntry = Tuple[Tuple[int, bool], bool, Optional[Request]]


def _validate_packet_sizes(workload: "Workload", config: SwitchConfig) -> None:
    """Reject flows whose packets can never fit their class buffer.

    A packet larger than its buffer would sit in the source queue forever
    (the buffer admits whole packets only); failing fast beats a silently
    dead flow.
    """
    capacities = {
        TrafficClass.BE: config.be_buffer_flits,
        TrafficClass.GB: config.gb_buffer_flits,
        TrafficClass.GL: config.gl_buffer_flits,
    }
    for spec in workload:
        if spec.process is None:
            continue
        length = spec.packet_length
        longest = length if isinstance(length, int) else length[1]
        capacity = capacities[spec.flow.traffic_class]
        if longest > capacity:
            raise SimulationError(
                f"flow {spec.flow}: {longest}-flit packets can never fit the "
                f"{capacity}-flit {spec.flow.traffic_class.short_name} buffer"
            )


def _checked_injector(
    plan: Optional[FaultPlan], radix: int, arbiters: Sequence[object]
) -> Optional[FaultInjector]:
    """Resolve a fault plan, failing fast on faults this kernel cannot host.

    Behavioral kernels model arbitration outcomes, not bitlines, so
    circuit-level fault kinds must be injected into
    :class:`repro.circuit.fabric.ArbitrationFabric` instead; and a counter
    bit-flip needs an arbiter that actually owns an auxVC counter.
    """
    injector = resolve_injector(plan)
    if injector is None:
        return None
    if injector.has_circuit_faults:
        raise ConfigError(
            "bitline/sense faults model the arbitration circuit; inject them "
            "into repro.circuit.ArbitrationFabric, not a behavioral kernel"
        )
    for spec in injector.plan.faults:
        if spec.input_port is not None and not 0 <= spec.input_port < radix:
            raise ConfigError(
                f"{spec.kind.value} fault targets input {spec.input_port} "
                f"outside radix {radix}"
            )
        if spec.output is not None and not 0 <= spec.output < radix:
            raise ConfigError(
                f"{spec.kind.value} fault targets output {spec.output} "
                f"outside radix {radix}"
            )
        if spec.kind is FaultKind.COUNTER_BITFLIP and not hasattr(
            arbiters[spec.output], "inject_counter_bitflip"
        ):
            raise ConfigError(
                f"arbiter {getattr(arbiters[spec.output], 'name', '?')!r} at "
                f"output {spec.output} has no auxVC counter to flip"
            )
    return injector


def _top_up(
    source: "FlowSource",
    port: InputPort,
    queue: FlitBuffer,
    now: int,
    on_created: Callable[[Packet], None],
) -> int:
    """Fill ``queue`` from saturating ``source`` until the next packet won't fit.

    ``queue`` is the buffer the source's flow lands in at ``port``. Every
    call ends with one abandoned attempt that consumes a packet id but is
    not counted as created, so packet ids are the same however often a
    kernel probes a full buffer. A fixed-length source's fit test is
    arithmetic, so the abandoned attempt only burns its id
    (:meth:`FlowSource.skip_packet`); a range-length source must draw the
    length from its RNG, so it builds the packet and rolls the count back.
    Returns the number of packets admitted.
    """
    admitted = 0
    length = source.packet_length
    if isinstance(length, int):
        capacity = queue.capacity_flits
        while queue.occupancy_flits + length <= capacity:
            packet = source.make_packet(now)
            on_created(packet)
            if not port.try_inject(packet, now):
                raise SimulationError("fits() and try_inject() disagree")
            admitted += 1
        source.skip_packet()
        return admitted
    while True:
        packet = source.make_packet(now)
        if not queue.fits(packet):
            source.created_count -= 1  # not offered after all
            return admitted
        on_created(packet)
        if not port.try_inject(packet, now):
            raise SimulationError("fits() and try_inject() disagree")
        admitted += 1


def _saturating_refill(
    saturating: Dict[int, List[Tuple["FlowSource", FlitBuffer]]],
    top_up_input: Callable[[int, int], None],
    packet_ids: Iterator[int],
) -> Callable[[int], None]:
    """Build step 2 of a wake: keep every saturating buffer full.

    Buffer space frees only in :meth:`InputPort.pop_packet`, and a kernel
    refills the granted input right after it, so once the first wake has
    topped every saturating input up, every saturating buffer is full at
    every later wake. A fixed-length source's probe of a full buffer then
    admits nothing and only burns one packet id (see :func:`_top_up`), so
    from the second call on the returned step burns one id per saturating
    source in a single call on the run's id stream. A range-length
    source's probe draws a length from its flow's RNG and may admit a
    shorter packet, so when any saturating source has range-length packets
    every call probes every saturating input in order, as the first does.
    """
    probes = sum(len(entries) for entries in saturating.values())
    per_input = any(
        not isinstance(source.packet_length, int)
        for entries in saturating.values()
        for source, _ in entries
    )
    filled = False

    def refill(now: int) -> None:
        nonlocal filled
        if filled and not per_input:
            skip_packet_ids(packet_ids, probes)
            return
        for port_index in saturating:
            top_up_input(port_index, now)
        filled = True

    return refill


class Simulation:
    """Couples a switch, a workload, and a statistics collector.

    Args:
        config: switch parameters.
        workload: flows to simulate (validated against the config).
        arbiter_factory: per-output arbitration policy; defaults to the
            paper's three-class SSVC stack. A factory built with
            :func:`repro.qos.shared_iterative_factory` instead selects the
            switch-wide matching path (requires ``config.voq``; packet
            chaining is rejected).
        seed: master seed; each flow gets an independent child stream so
            adding a flow never perturbs the others' arrivals.
        warmup_cycles: measurement starts here (defaults to 10% of the
            horizon, set at :meth:`run`).
        collect_events: record :class:`GrantEvent`/:class:`PacketDelivered`
            (memory-proportional to traffic; off by default).
        window_cycles: windowed-throughput bucket width.
        probe: optional :class:`~repro.obs.probe.Probe` fed kernel counters
            (wakes, heap pushes, arbitrations, declines, grants, chain
            hits, GL throttles, overflow scans) and, when its ``trace``
            flag is set, structured grant events. ``None`` (the default)
            keeps the hot path free of instrumentation work.
        fault_plan: optional :class:`~repro.faults.FaultPlan` of behavioral
            faults (input stalls, dead crosspoints, counter bit-flips,
            packet drops/dups) injected deterministically during the run.
            ``None`` or an empty plan leaves the kernel bit-identical to an
            unfaulted run; circuit-level fault kinds are rejected here (see
            :func:`_checked_injector`).
    """

    def __init__(
        self,
        config: SwitchConfig,
        workload: Workload,
        arbiter_factory: Optional[ArbiterFactory] = None,
        seed: int = 0,
        warmup_cycles: Optional[int] = None,
        collect_events: bool = False,
        window_cycles: int = 1024,
        probe: Optional[Probe] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        workload.validate(config.radix, config.gl_policer.reserved_rate)
        _validate_packet_sizes(workload, config)
        self.config = config
        self.workload = workload
        self.switch = SwizzleSwitch(config, arbiter_factory)
        self._scheduler = self._resolve_scheduler(config, self.switch)
        self.seed = seed
        self._warmup_override = warmup_cycles
        self.collect_events = collect_events
        self.window_cycles = window_cycles
        self.probe = probe
        self.fault_plan = fault_plan
        self._programmed = False
        self._ran = False

    # ----------------------------------------------------------------- setup

    @staticmethod
    def _resolve_scheduler(
        config: SwitchConfig, switch: SwizzleSwitch
    ) -> Optional[IterativeArbiter]:
        """Detect and validate an iterative matching scheduler, if any.

        Iterative schedulers compute one matching for the whole switch, so
        every output must share a single instance (built through
        :func:`repro.qos.shared_iterative_factory`), the input ports must
        be fully virtual-output-queued, and packet chaining — a per-output
        repeat-winner shortcut that would bypass the matching — is not
        modeled.

        Raises:
            ConfigError: on any violation; misconfigured matching would
                otherwise silently double-book inputs.
        """
        arbiters = switch.arbiters
        if not any(isinstance(a, IterativeArbiter) for a in arbiters):
            return None
        first = arbiters[0]
        if not isinstance(first, IterativeArbiter) or any(
            a is not first for a in arbiters
        ):
            raise ConfigError(
                "iterative schedulers are switch-wide: every output must "
                "share one instance — build the arbiter factory with "
                "repro.qos.shared_iterative_factory"
            )
        if not config.voq:
            raise ConfigError(
                f"{first.name} matches over virtual output queues; set "
                "SwitchConfig(voq=True) (classic ports only VOQ the GB class)"
            )
        if config.packet_chaining:
            raise ConfigError(
                "packet chaining is a per-output repeat-winner shortcut and "
                f"is not modeled for the {first.name} matching scheduler"
            )
        if first.num_inputs != config.radix:
            raise ConfigError(
                f"{first.name} was built for {first.num_inputs} ports but "
                f"the switch radix is {config.radix}"
            )
        return first

    def _program_switch(self) -> None:
        """Install reservations and priority levels from the workload."""
        if self._programmed:
            return
        for spec in self.workload:
            if spec.reserved_rate is not None:
                self.switch.reserve_gb(
                    spec.flow.src,
                    spec.flow.dst,
                    spec.reserved_rate,
                    max(int(round(spec.mean_packet_flits)), 1),
                )
            if spec.priority_level:
                try:
                    self.switch.set_priority_level(spec.flow.src, spec.priority_level)
                except Exception:  # reprolint: disable=swallowed-exception
                    # Levels are only meaningful for the fixed-priority
                    # baseline; other arbiters reject or ignore them by
                    # design, so a failed set_priority_level is expected.
                    pass
        self._programmed = True

    def _claim_run(self) -> None:
        """Allow one :meth:`run` per simulation.

        Channels, buffers and arbiter state live on :attr:`switch` and
        would carry a finished run's state into the next one.

        Raises:
            SimulationError: on a second call.
        """
        if self._ran:
            raise SimulationError(
                "this simulation already ran; its channels, buffers and "
                "arbiters hold that run's state, so build a new Simulation "
                "for another run"
            )
        self._ran = True

    def _build_sources(
        self, horizon: int, packet_ids: Optional[Iterator[int]] = None
    ) -> "List[FlowSource]":
        from ..traffic.generators import FlowSource

        seeds = np.random.SeedSequence(self.seed).spawn(len(self.workload.flows))
        if packet_ids is None:
            packet_ids = fresh_packet_ids()  # per-run ids: replayable traces
        sources = []
        for spec, child in zip(self.workload, seeds):
            if spec.process is None:
                continue  # reservation-only flow: no traffic
            sources.append(
                FlowSource(
                    flow=spec.flow,
                    process=spec.process,
                    packet_length=spec.packet_length,
                    horizon=horizon,
                    rng=np.random.default_rng(child),
                    id_source=packet_ids,
                )
            )
        return sources

    # ------------------------------------------------------------------- run

    def run(self, horizon: int) -> SimulationResult:
        """Simulate ``horizon`` cycles and return the collected results.

        Raises:
            SimulationError: on a bad horizon or warmup, or when this
                simulation already ran (build a new one instead).
        """
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        warmup = (
            self._warmup_override
            if self._warmup_override is not None
            else horizon // 10
        )
        if warmup >= horizon:
            raise SimulationError(f"warmup {warmup} must be below horizon {horizon}")
        self._claim_run()
        self._program_switch()
        scheduler = self._scheduler
        if scheduler is not None:
            # Sampling schedulers key every draw on (seed, cycle, round,
            # port); binding here makes replay independent of sweep fan-out.
            scheduler.bind_seed(self.seed)
        stats = StatsCollector(warmup_cycles=warmup, window_cycles=self.window_cycles)
        packet_ids = fresh_packet_ids()  # per-run ids: replayable traces
        sources = self._build_sources(horizon, packet_ids)
        events: List[object] = []
        grants = 0
        probe = self.probe
        # Hooks are resolved once per run; the loop below keeps plain local
        # counters and flushes aggregates to the probe after the horizon.
        # Only trace events (ordered, payload-bearing) are emitted inline.
        hooks = resolve_hooks(probe)
        gauge_hook = hooks.gauge
        event_hook = hooks.event
        wakes = 0
        heap_pushes = 0
        arrivals = 0
        arbitrations = 0
        declines = 0
        gl_throttles = 0
        overflow_scans = 0
        max_overflow_flows = 0
        max_overflow_depth = 0
        voq_matches = 0
        voq_pairs = 0
        voq_iterations = 0
        voq_proposals = 0

        switch = self.switch
        radix = switch.radix
        inputs = switch.inputs
        outputs = switch.outputs
        arbiters = switch.arbiters
        demand = switch.demand
        # Per-output structures that cannot change during a run.
        policers = [getattr(arbiters[o], "gl_policer", None) for o in range(radix)]
        arb_cycles_for = [switch.arbitration_cycles_for(o) for o in range(radix)]
        packet_chaining = self.config.packet_chaining
        max_chain_length = self.config.max_chain_length
        collect = self.collect_events

        # Fault injection: resolved once; per-kind flags keep the unfaulted
        # hot path to a handful of false boolean checks.
        injector = _checked_injector(self.fault_plan, radix, arbiters)
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

        # Saturating sources grouped by input, each with the buffer its
        # flow lands in, so top-up is O(active inputs).
        saturating: Dict[int, List[Tuple[FlowSource, FlitBuffer]]] = {}
        # Scheduled arrivals as a heap of (next_time, tiebreak, source).
        arrival_heap: List = []
        for idx, source in enumerate(sources):
            if source.saturating:
                saturating.setdefault(source.flow.src, []).append(
                    (source, inputs[source.flow.src].queue_for(source.flow))
                )
            else:
                t0 = source.peek_time()
                if t0 is not None:
                    heapq.heappush(arrival_heap, (t0, idx, source))

        # Source-side overflow queues per input, each dict in the order its
        # flows (most recently) became backlogged. Buffer space frees only
        # in pop_packet, so only the input a grant just freed can admit a
        # backlogged packet: that input alone is drained, after each grant.
        overflow: List[Dict[FlowId, Deque[Packet]]] = [{} for _ in range(radix)]
        backlogged_flows = 0

        # Packet-chaining state per output: (last winner, its delivery
        # cycle, packets chained so far). See SwitchConfig.packet_chaining.
        chain_last_input = [-1] * radix
        chain_last_delivered = [-1] * radix
        chain_length = [0] * radix
        chained_grants = 0

        wake_heap: List[int] = [0]
        pending_wakes = {0}

        def wake(t: int) -> None:
            nonlocal heap_pushes
            if t < horizon and t not in pending_wakes:
                heapq.heappush(wake_heap, t)
                pending_wakes.add(t)
                heap_pushes += 1

        # Every scheduled source's first arrival must be a wake time.
        for t0, _, _ in arrival_heap:
            wake(int(t0))

        if injector is not None:
            # Stall boundaries and bit-flip cycles must be wake times so
            # this sparse kernel re-evaluates exactly when the per-cycle
            # flit kernel would (kernel parity under an active plan).
            for t in injector.wake_cycles():
                wake(t)

        on_created = stats.on_created

        def top_up_input(port_index: int, now: int) -> None:
            entries = saturating.get(port_index)
            if entries is not None:  # keep buffers full
                port = inputs[port_index]
                for source, queue in entries:
                    _top_up(source, port, queue, now, on_created)

        refill_saturating = _saturating_refill(saturating, top_up_input, packet_ids)

        # Request reuse per (output, input): ((stamp, allow_gl), gl_denied,
        # request). An input's stamp moves on every mutation, so a matching
        # key proves the head, the masked GL head and the occupancy the
        # request reports are all unchanged since the entry was built.
        reuse: List[List[Optional[_ReuseEntry]]] = [[None] * radix for _ in range(radix)]

        def drain_overflow(port_index: int, now: int) -> None:
            # Scans are O(flows with backlog at this input): flows whose
            # queue empties are pruned, so drained flows cost nothing here.
            nonlocal overflow_scans, backlogged_flows
            backlog = overflow[port_index]
            if not backlog:
                return
            overflow_scans += len(backlog)
            port = inputs[port_index]
            drained = []
            for flow, queue in backlog.items():
                while queue and port.try_inject(queue[0], now):
                    queue.popleft()
                if not queue:
                    drained.append(flow)
            for flow in drained:
                del backlog[flow]
            backlogged_flows -= len(drained)

        def book_grant(
            o: int, in_port: int, packet: Packet, contenders: int, now: int
        ) -> int:
            """Pop the granted packet and run the shared delivery bookkeeping.

            Both arbitration paths — per-output arbiters and switch-wide
            iterative matching — funnel through here, so transmission
            timing, packet chaining, drop/dup fault accounting, statistics,
            trace/collected events, and the freed-buffer refill can never
            drift between them. Returns the delivery cycle.
            """
            nonlocal grants, chained_grants, fault_drops, fault_dups
            port = inputs[in_port]
            port.pop_packet(packet)
            arb_cycles = arb_cycles_for[o]
            if packet_chaining:
                if (
                    chain_last_input[o] == in_port
                    and chain_last_delivered[o] == now
                    and chain_length[o] < max_chain_length
                ):
                    # Back-to-back repeat winner: the chain request was
                    # raised during the previous tail flit, so no
                    # arbitration bubble is paid.
                    arb_cycles = 0
                    chain_length[o] += 1
                    chained_grants += 1
                else:
                    chain_length[o] = 0
            delivered = outputs[o].start_transmission(packet, now, arb_cycles)
            chain_last_input[o] = in_port
            chain_last_delivered[o] = delivered
            port.busy_until = delivered
            dropped = faults_drop and injector.drop_delivery(
                o, packet.packet_id, now
            )
            if dropped:
                # The channel still carried the flits; only the
                # delivery accounting is lost.
                fault_drops += 1
                if event_hook is not None:
                    event_hook(
                        "fault",
                        now,
                        kind="packet-drop",
                        output=o,
                        input=in_port,
                        packet_id=packet.packet_id,
                    )
            else:
                stats.on_delivered(packet)
                if faults_dup and injector.duplicate_delivery(
                    o, packet.packet_id, now
                ):
                    stats.on_delivered(packet)
                    fault_dups += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            kind="packet-dup",
                            output=o,
                            input=in_port,
                            packet_id=packet.packet_id,
                        )
            grants += 1
            if event_hook is not None:
                event_hook(
                    "grant",
                    now,
                    output=o,
                    input=in_port,
                    flow=str(packet.flow),
                    packet_id=packet.packet_id,
                    flits=packet.flits,
                    contenders=contenders,
                    delivered=delivered,
                    latency=packet.latency,
                    waiting=packet.waiting_time,
                )
            if collect:
                events.append(
                    GrantEvent(
                        cycle=now,
                        output=o,
                        input_port=in_port,
                        flow=packet.flow,
                        packet_id=packet.packet_id,
                        packet_flits=packet.flits,
                        contenders=contenders,
                    )
                )
                if not dropped:
                    events.append(
                        PacketDelivered(
                            cycle=delivered,
                            flow=packet.flow,
                            packet_id=packet.packet_id,
                            latency=packet.latency,
                            waiting_time=packet.waiting_time,
                        )
                    )
            wake(delivered)
            # Freed buffer space at this input (and only here): admit
            # waiting/saturating packets now so their injection timestamps
            # are exact.
            drain_overflow(in_port, now)
            top_up_input(in_port, now)
            return delivered

        while wake_heap:
            now = heapq.heappop(wake_heap)
            pending_wakes.discard(now)
            if now >= horizon:
                continue
            wakes += 1

            # 1. Scheduled arrivals up to and including `now`.
            while arrival_heap and arrival_heap[0][0] <= now:
                _, idx, source = heapq.heappop(arrival_heap)
                packet = source.pop_scheduled()
                stats.on_created(packet)
                backlog = overflow[packet.src]
                queued = backlog.get(packet.flow)
                if queued is not None:
                    queued.append(packet)  # FIFO behind older packets
                elif not inputs[packet.src].try_inject(packet, now):
                    queued = backlog[packet.flow] = deque((packet,))
                    backlogged_flows += 1
                arrivals += 1
                if gauge_hook is not None and queued is not None:
                    if backlogged_flows > max_overflow_flows:
                        max_overflow_flows = backlogged_flows
                    if len(queued) > max_overflow_depth:
                        max_overflow_depth = len(queued)
                next_time = source.peek_time()
                if next_time is not None:
                    heapq.heappush(arrival_heap, (next_time, idx, source))
                    heap_pushes += 1
                    wake(int(next_time))

            # 2. Top up saturating sources. Backlogged overflow needs no
            #    retry here: no buffer space freed since its input's last
            #    drain, which ran right after that input's last grant.
            if saturating:
                refill_saturating(now)

            # 2b. Counter bit-flips fire before any arbitration this cycle,
            #     mirroring the flit kernel's per-cycle ordering.
            if faults_flips:
                for spec in injector.counter_flips_at(now):
                    arbiters[spec.output].inject_counter_bitflip(
                        spec.input_port, spec.bit, now
                    )
                    fault_flips_applied += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            kind="counter-bitflip",
                            output=spec.output,
                            input=spec.input_port,
                            bit=spec.bit,
                        )

            # 3a. Switch-wide iterative matching: one match() call covers
            #     every idle output this cycle.
            if scheduler is not None:
                free_outputs = [o for o in range(radix) if outputs[o].is_idle(now)]
                if not free_outputs:
                    continue
                backlog: Dict[int, Dict[int, int]] = {}
                for port in inputs:
                    if port.busy_until > now or port.total_occupancy_flits == 0:
                        continue
                    if faults_stall and injector.stalled(port.port, now):
                        # A stalled input raises no request lines at all
                        # this cycle; its whole backlog is masked.
                        fault_stall_masks += 1
                        continue
                    per_port = port.voq_backlog(free_outputs)
                    if faults_dead:
                        for dead_o in list(per_port):
                            if injector.crosspoint_dead(port.port, dead_o):
                                # A dead crosspoint cannot raise its request
                                # line; that VOQ sits blocked in place.
                                del per_port[dead_o]
                                fault_dead_masks += 1
                    if per_port:
                        backlog[port.port] = per_port
                if not backlog:
                    continue
                arbitrations += 1
                matching = scheduler.match(backlog, free_outputs, now)
                voq_matches += 1
                voq_pairs += len(matching.pairs)
                voq_iterations += matching.iterations
                voq_proposals += matching.proposals
                if event_hook is not None:
                    event_hook(
                        "match",
                        now,
                        scheduler=scheduler.name,
                        requests=len(backlog),
                        free_outputs=len(free_outputs),
                        pairs=len(matching.pairs),
                        iterations=matching.iterations,
                        proposals=matching.proposals,
                    )
                if not matching.pairs:
                    declines += 1
                for in_port, o in sorted(matching.pairs, key=lambda pair: pair[1]):
                    packet = inputs[in_port].head_for_output(o, allow_gl=True)
                    if packet is None:
                        raise SimulationError(
                            f"{scheduler.name} matched input {in_port} to "
                            f"output {o} but that VOQ is empty"
                        )
                    contenders = sum(1 for b in backlog.values() if o in b)
                    book_grant(o, in_port, packet, contenders, now)
                if len({pair[0] for pair in matching.pairs}) < len(backlog):
                    # Some requesting input went unmatched (bounded
                    # iterations, a sampling collision, or a stale window
                    # slot): retry next cycle like a declining arbiter.
                    wake(now + 1)
                continue

            # 3b. Per-output arbiters: arbitrate idle outputs, rotating the
            #     start to avoid bias. Only free inputs holding a packet for
            #     the output are visited: any other input has no head, no
            #     masked GL head and no fault-masked request for it, so an
            #     output no input holds a packet for is skipped whole
            #     (GLPolicer.eligible is pure, so skipping it is too).
            for k in range(radix):
                o = (now + k) % radix
                if not demand[o] or outputs[o].busy_until > now:
                    continue
                holders = [
                    port
                    for port in inputs
                    if port.to_output[o] and port.busy_until <= now
                ]
                if not holders:
                    continue
                arbiter = arbiters[o]
                policer = policers[o]
                allow_gl = policer is None or policer.eligible(now)
                reuse_o = reuse[o]
                requests = []
                gl_denied_inputs = []
                for port in holders:
                    if faults_stall and injector.stalled(port.port, now):
                        # A stalled input raises nothing this cycle: no
                        # request and no policer-throttle decision either.
                        if port.head_for_output(o, allow_gl=True) is not None:
                            fault_stall_masks += 1
                        continue
                    if faults_dead and injector.crosspoint_dead(port.port, o):
                        # A dead crosspoint cannot raise its request line;
                        # packets to this output block at the head (HOL).
                        if port.head_for_output(o, allow_gl=True) is not None:
                            fault_dead_masks += 1
                        continue
                    key = (port.stamp, allow_gl)
                    entry = reuse_o[port.port]
                    if entry is None or entry[0] != key:
                        head = port.head_for_output(o, allow_gl=allow_gl)
                        # A GL head masked by the policer is a throttle
                        # decision even though it never becomes a request
                        # (the GB/BE head in front of it requests instead).
                        gl_denied = not allow_gl and port.gl_head_for(o) is not None
                        request = None
                        if head is not None:
                            request = Request(
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
                        entry = reuse_o[port.port] = (key, gl_denied, request)
                    _, gl_denied, request = entry
                    if gl_denied:
                        gl_denied_inputs.append(port.port)
                    if request is not None:
                        requests.append(request)
                if gl_denied_inputs and policer is not None:
                    # One throttle event per denied (cycle, input) pair; the
                    # arbiter's own note_throttled for demoted GL requests
                    # folds into these via the policer's per-cycle dedupe.
                    for denied_input in gl_denied_inputs:
                        policer.note_throttled(now, denied_input)
                        gl_throttles += 1
                        if event_hook is not None:
                            event_hook("gl_throttle", now, output=o, input=denied_input)
                if not requests:
                    continue
                arbitrations += 1
                winner = arbiter.select(requests, now)
                if winner is None:
                    declines += 1
                    wake(now + 1)  # non-work-conserving decline: retry
                    continue
                arbiter.commit(winner, now)
                port = inputs[winner.input_port]
                packet = port.head_for_output(o, allow_gl=allow_gl)
                if packet is None or packet.flits != winner.packet_flits:
                    raise SimulationError(
                        f"arbiter granted a request that is no longer head-of-line "
                        f"at input {winner.input_port}"
                    )
                book_grant(o, winner.input_port, packet, len(requests), now)

        # Flush locally-accumulated aggregates to the probe once. Counters
        # that never fired stay absent, matching the old inline behaviour.
        count_hook = hooks.count
        if count_hook is not None:
            for name, total in (
                ("kernel.wakes", wakes),
                ("kernel.heap_pushes", heap_pushes),
                ("kernel.arrivals", arrivals),
                ("kernel.arbitrations", arbitrations),
                ("kernel.declines", declines),
                ("kernel.grants", grants),
                ("kernel.chain_grants", chained_grants),
                ("kernel.gl_throttles", gl_throttles),
                ("kernel.overflow_flows_scanned", overflow_scans),
            ):
                if total:
                    count_hook(name, total)
            if scheduler is not None:
                # voq.* counters exist only under a matching scheduler, so
                # per-output-arbiter runs flush exactly what they used to.
                for name, total in (
                    ("voq.matches", voq_matches),
                    ("voq.matched_pairs", voq_pairs),
                    ("voq.iterations", voq_iterations),
                    ("voq.proposals", voq_proposals),
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
        if gauge_hook is not None:
            if max_overflow_flows:
                gauge_hook("kernel.overflow_flows", max_overflow_flows)
            if max_overflow_depth:
                gauge_hook("kernel.overflow_queue_depth", max_overflow_depth)

        stats.finish(horizon)
        gl_throttle_events: Dict[int, int] = {}
        for o in range(radix):
            if policers[o] is not None:
                gl_throttle_events[o] = policers[o].throttle_events
        return SimulationResult(
            chained_grants=chained_grants,
            config=self.config,
            workload_name=self.workload.name,
            horizon=horizon,
            warmup_cycles=warmup,
            stats=stats,
            output_utilization={
                o: outputs[o].utilization(horizon) for o in range(radix)
            },
            grants=grants,
            events=events,
            gl_throttle_events=gl_throttle_events,
        )
