"""Event-driven simulation kernel with cycle-exact semantics.

The kernel advances between *wake times*: cycles where something an
arbiter reads can change. Those are an output channel (and its sending
input) becoming free, a retry after an arbiter declined to grant or a
matching left a requester unmatched, a fault cycle, and a scheduled
arrival that is admitted into an input buffer. At each one it (1) admits
arrivals into the input port buffers (overflow waits in per-flow source
queues — the source side of the network interface), (2) tops up
saturating sources, and (3) arbitrates every idle output in a rotating
order. An arrival whose packet only joins its source queue changes no
request, so its cycle runs step 1 (and step 2, which burns packet ids)
and skips step 3: after any step 3 every idle output either has no free
input requesting it or has a retry queued for the next cycle, and only a
wake or an admission changes that. This produces exactly the schedule a
per-cycle loop would, at a fraction of the cost.

Arbitration runs in one of three modes. With per-output arbiters (the
paper's switch) every idle output consults its own
:class:`~repro.qos.base.OutputArbiter` in a rotating order. With an
iterative matching scheduler (:class:`~repro.qos.iterative.
IterativeArbiter` — iSLIP, QPS-r, SW-QPS; requires ``config.voq``) the
kernel instead builds the VOQ backlog of every free input once per wake
time and applies the scheduler's switch-wide matching. A subclass may
instead supply a :class:`BatchedStep` that decides every idle output at
once (the array kernel, :mod:`repro.switch.array_kernel`).
:meth:`Simulation.run` is the one run loop for all three, and they share
one grant-bookkeeping closure, so timing, fault accounting, and
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
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from ..config import SwitchConfig
from ..core.arbitration import Request
from ..errors import ConfigError, SimulationError
from ..faults import FaultInjector, FaultKind, FaultPlan, resolve_injector
from ..metrics.counters import StatsCollector
from ..obs.probe import EventHook, Probe, resolve_hooks
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
        kernel: which engine produced this result (``event``/``array``/``flit``).
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


#: Step 3b's reuse entry for one (output, input): ``(stamp, allow_gl,
#: gl_denied, request, head)``.
_ReuseEntry = Tuple[int, bool, bool, Optional[Request], Optional[Packet]]

#: The run loop's grant bookkeeping: ``book_grant(output, input, packet,
#: contenders, now)`` pops ``packet``, transmits it and returns its
#: delivery cycle.
BookGrant = Callable[[int, int, Packet, int, int], int]


class BatchedStep(Protocol):
    """One run's batched arbitration, in place of steps 3a and 3b.

    :meth:`Simulation.run` calls :meth:`flip` for each counter bit-flip
    due at a wake (step 2b) and then :meth:`arbitrate` once per wake; the
    step passes every winner to the loop's ``book_grant``. The counters
    are flushed to the probe after the horizon like the loop's own.
    """

    arbitrations: int
    gl_throttles: int
    stall_masks: int
    dead_masks: int

    def flip(self, output: int, input_port: int, bit: int, now: int) -> None:
        """Flip one bit of one auxVC counter."""

    def arbitrate(self, now: int) -> None:
        """Arbitrate every idle output at wake ``now``."""


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


def _arrival_stream(
    schedules: Sequence[np.ndarray], horizon: int
) -> Tuple[memoryview, memoryview]:
    """Merge per-source arrival schedules into one presorted stream.

    ``schedules`` holds each source's sorted int64 creation cycles (empty
    for a saturating source). Returns ``(times, owners)``: creation cycles
    and indices into ``schedules``, ordered by cycle and then by source
    index. That is the order in which a heap of per-source cursors would
    pop them, so packet ids, which are drawn in creation order, do not
    depend on how the merge is done. ``times`` has one entry more than
    ``owners``, ``horizon``, which ends the stream. One ``np.lexsort`` over
    the concatenated schedules builds both; they are views of int64
    arrays, so indexing yields plain ints and the stream holds 16 bytes an
    arrival.
    """
    owners = [i for i, schedule in enumerate(schedules) if len(schedule)]
    parts = [schedules[i] for i in owners]
    parts.append(np.array([horizon], dtype=np.int64))
    owners.append(len(schedules))  # the end entry sorts after any arrival
    times = np.concatenate(parts)
    index = np.repeat(
        np.asarray(owners, dtype=np.int64), [len(part) for part in parts]
    )
    order = np.lexsort((index, times))
    return memoryview(times[order]), memoryview(index[order][:-1])


#: A source with the input port and the buffer its flow lands in.
_Landing = Tuple["FlowSource", InputPort, FlitBuffer]


def _landings(
    sources: Sequence["FlowSource"], inputs: Sequence[InputPort]
) -> Tuple[List[_Landing], Dict[int, List[Tuple["FlowSource", FlitBuffer]]]]:
    """Each source's port and landing buffer, resolved once per run.

    Also returns the saturating sources grouped by input, each with its
    buffer, so top-up is O(active inputs).
    """
    landings: List[_Landing] = []
    saturating: Dict[int, List[Tuple["FlowSource", FlitBuffer]]] = {}
    for source in sources:
        port = inputs[source.flow.src]
        queue = port.queue_for(source.flow)
        landings.append((source, port, queue))
        if source.saturating:
            saturating.setdefault(port.port, []).append((source, queue))
    return landings, saturating


class _Admits(Protocol):
    """A port that admits a packet into the buffer it lands in, or refuses.

    :class:`InputPort` is one; so is the composition's host port, whose
    buffers are its per-uplink VOQs.
    """

    def try_inject(self, packet: Packet, now: int) -> bool: ...


#: A packet waiting at its source: ``(created_cycle, packet_id, flits)``.
#: Its flow is the key of the queue it waits in.
Waiting = Tuple[int, int, int]


class _SourceBacklog:
    """Source-side overflow queues, kept per input buffer.

    A packet that does not fit its class buffer waits in its flow's source
    queue, and later packets of that flow queue behind it. Buffer space
    frees only when a grant pops a packet out of one buffer, so a grant
    retries only that buffer's flows (:meth:`drain`): every other buffer
    has gained no space since its flows last failed to fit, so skipping
    them cannot change an admission. Within a buffer, flows drain in the
    order they (most recently) became backlogged.

    A waiting packet is a :data:`Waiting` entry, not a :class:`Packet`:
    its id and length were drawn at arrival, so ids and the flow's RNG
    draws do not depend on how long it waits, and its packet is built only
    when :meth:`drain` admits it. Under overload most arrivals are still
    waiting at the horizon and never become one.

    Each flow owns one source queue for the whole run, empty while the
    flow does not wait, so a kernel appends an arrival behind a waiting
    flow's backlog itself (``if queued: queued.append(entry)``) and offers
    only the arrivals of flows that do not wait.

    Attributes:
        waiting: backlogged flows per buffer; a buffer with no backlog has
            no entry, so ``buffer in waiting`` is the whole cost of a
            grant that frees a buffer nobody waits for.
        flows: backlogged flows across all buffers.
        scans: flows visited by :meth:`drain` (the
            ``kernel.overflow_flows_scanned`` counter).
    """

    def __init__(self) -> None:
        self.waiting: Dict[FlitBuffer, Dict[FlowId, Deque[Waiting]]] = {}
        self.flows = 0
        self.scans = 0

    def offer(
        self,
        port: _Admits,
        buffer: FlitBuffer,
        flow: FlowId,
        queued: Deque[Waiting],
        entry: Waiting,
        now: int,
    ) -> bool:
        """Admit ``flow``'s arriving ``entry`` into ``buffer``, or start a wait.

        ``buffer`` is the one the flow's packets land in at ``port`` and
        ``queued`` the flow's source queue, which must be empty: an arrival
        of a flow that already waits belongs behind its backlog. Returns
        ``True`` when the packet was admitted, ``False`` when ``entry``
        starts the flow's wait in ``queued``.
        """
        created, packet_id, flits = entry
        if buffer.occupancy_flits + flits <= buffer.capacity_flits:
            packet = Packet(flow, flits, created, packet_id=packet_id)
            if not port.try_inject(packet, now):
                raise SimulationError("fits() and try_inject() disagree")
            return True
        flows = self.waiting.get(buffer)
        if flows is None:
            flows = self.waiting[buffer] = {}
        queued.append(entry)
        flows[flow] = queued
        self.flows += 1
        return False

    def drain(self, port: _Admits, buffer: FlitBuffer, now: int) -> int:
        """Admit what now fits into ``buffer``, which a grant just freed.

        Flows whose queue empties are pruned, so a drain visits only flows
        that still wait. Returns the number of packets admitted.
        """
        flows = self.waiting[buffer]
        self.scans += len(flows)
        capacity = buffer.capacity_flits
        admitted = 0
        drained = []
        for flow, queued in flows.items():
            while queued:
                created, packet_id, flits = queued[0]
                if buffer.occupancy_flits + flits > capacity:
                    break
                packet = Packet(flow, flits, created, packet_id=packet_id)
                if not port.try_inject(packet, now):
                    raise SimulationError("fits() and try_inject() disagree")
                queued.popleft()
                admitted += 1
            if not queued:
                drained.append(flow)
        for flow in drained:
            del flows[flow]
        if not flows:
            del self.waiting[buffer]
        self.flows -= len(drained)
        return admitted


def _top_up(
    source: "FlowSource",
    port: InputPort,
    queue: FlitBuffer,
    now: int,
    on_created: Callable[[FlowId, int, int], None],
) -> int:
    """Fill ``queue`` from saturating ``source`` until the next packet won't fit.

    ``queue`` is the buffer the source's flow lands in at ``port``. Every
    call ends with one abandoned attempt that consumes a packet id but is
    not counted as created, so packet ids are the same however often a
    kernel probes a full buffer. A fixed-length source's fit test is
    arithmetic, so the abandoned attempt only burns its id
    (:meth:`FlowSource.skip_packet`); a range-length source must draw the
    length from its RNG, so it builds the packet and drops it.
    Returns the number of packets admitted.
    """
    admitted = 0
    flow = source.flow
    length = source.packet_length
    if isinstance(length, int):
        capacity = queue.capacity_flits
        while queue.occupancy_flits + length <= capacity:
            packet = source.make_packet(now)
            on_created(flow, now, length)
            if not port.try_inject(packet, now):
                raise SimulationError("fits() and try_inject() disagree")
            admitted += 1
        source.skip_packet()
        return admitted
    while True:
        packet = source.make_packet(now)
        if not queue.fits(packet):
            return admitted  # not offered after all
        on_created(flow, now, packet.flits)
        if not port.try_inject(packet, now):
            raise SimulationError("fits() and try_inject() disagree")
        admitted += 1


def _saturating_refill(
    saturating: Dict[int, List[Tuple["FlowSource", FlitBuffer]]],
    top_up_input: Callable[[int, int], int],
    packet_ids: Iterator[int],
) -> Callable[[int], bool]:
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
    The step returns whether it admitted a packet.
    """
    probes = sum(len(entries) for entries in saturating.values())
    per_input = any(
        not isinstance(source.packet_length, int)
        for entries in saturating.values()
        for source, _ in entries
    )
    filled = False

    def refill(now: int) -> bool:
        nonlocal filled
        if filled and not per_input:
            skip_packet_ids(packet_ids, probes)
            return False
        admitted = 0
        for port_index in saturating:
            admitted += top_up_input(port_index, now)
        filled = True
        return admitted > 0

    return refill


class _OfferedLoad:
    """The offered load of a run's scheduled sources, counted per flow.

    Every scheduled arrival at or after warmup is offered load. A flow's
    packet count comes from its schedule and its flits from its fixed
    length, or, for range lengths, from the lengths :meth:`draw_length`
    drew, so a run loop records no arrival one at a time and adds each
    flow's totals once (:meth:`finish`). :meth:`touch` creates a flow's
    collector entry at its first counted arrival, where a per-arrival
    :meth:`StatsCollector.on_created` would have created it, so the
    collector's flow order, which float sums over its flows follow, does
    not change.

    Attributes:
        lengths: each source's fixed packet length, or 0 when it draws
            lengths from its RNG.
    """

    def __init__(
        self, sources: Sequence["FlowSource"], stats: StatsCollector, horizon: int
    ) -> None:
        self._sources = sources
        self._stats = stats
        self._warmup = warmup = stats.warmup_cycles
        self._horizon = horizon
        self.lengths = [
            source.packet_length if isinstance(source.packet_length, int) else 0
            for source in sources
        ]
        self._counted: List[int] = []
        self._drawn = [0] * len(sources)
        firsts: List[Tuple[int, int]] = []
        for index, source in enumerate(sources):
            schedule = source.schedule
            start = int(np.searchsorted(schedule, warmup))
            self._counted.append(len(schedule) - start)
            if start < len(schedule):
                firsts.append((int(schedule[start]), index))
        # The arrival stream's (cycle, source index) order.
        self._firsts = sorted(firsts)
        self._touched = 0

    def draw_length(self, index: int, now: int) -> int:
        """Draw the length of source ``index``'s arrival at ``now``."""
        flits = self._sources[index].draw_length()
        if now >= self._warmup:
            self._drawn[index] += flits
        return flits

    def touch(self, now: int) -> int:
        """Create the entries of flows first counted at or before ``now``.

        Call it after the arrivals at ``now``. Returns the cycle of the
        next flow's first counted arrival (the horizon when none is left).
        """
        firsts = self._firsts
        k = self._touched
        while k < len(firsts) and firsts[k][0] <= now:
            self._stats.flow_stats(self._sources[firsts[k][1]].flow)
            k += 1
        self._touched = k
        return firsts[k][0] if k < len(firsts) else self._horizon

    def finish(self) -> None:
        """Add every flow's counted packets and flits to the collector."""
        for index, source in enumerate(self._sources):
            packets = self._counted[index]
            if packets:
                length = self.lengths[index]
                flits = packets * length if length else self._drawn[index]
                self._stats.add_offered(source.flow, packets, flits)


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

    #: Engine name reported in :attr:`SimulationResult.kernel`.
    kernel = "event"

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
        # Levels are only meaningful for the fixed-priority baseline; a
        # switch whose arbiters have no levels ignores them by design.
        has_levels = any(hasattr(a, "set_level") for a in self.switch.arbiters)
        for spec in self.workload:
            if spec.reserved_rate is not None:
                self.switch.reserve_gb(
                    spec.flow.src,
                    spec.flow.dst,
                    spec.reserved_rate,
                    max(int(round(spec.mean_packet_flits)), 1),
                )
            if spec.priority_level and has_levels:
                self.switch.set_priority_level(spec.flow.src, spec.priority_level)
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

    def _batched_step(
        self,
        book_grant: BookGrant,
        injector: Optional[FaultInjector],
        event_hook: Optional[EventHook],
    ) -> Optional[BatchedStep]:
        """This run's batched arbitration step; the event kernel has none."""
        return None

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
        arbitrations = 0
        declines = 0
        gl_throttles = 0
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

        landing, saturating = _landings(sources, inputs)
        # Scheduled arrivals, presorted once; ``horizon`` ends the stream.
        arrival_times, arrival_sources = _arrival_stream(
            [source.schedule for source in sources], horizon
        )
        arrivals = len(arrival_sources)
        next_arrival = arrival_times[0]
        cursor = 0
        # Offered load is counted per flow, not per arrival.
        offered = _OfferedLoad(sources, stats, horizon)
        lengths = offered.lengths
        draw_length = offered.draw_length
        next_touch = offered.touch(-1)

        # Source-side overflow queues, one per source. A grant frees space
        # in one buffer only, and only that buffer's backlog is retried,
        # right after it.
        overflow = _SourceBacklog()
        source_queues: List[Deque[Waiting]] = [deque() for _ in sources]
        backlogged = overflow.waiting
        offer = overflow.offer
        drain = overflow.drain

        # Packet-chaining state per output: (last winner, its delivery
        # cycle, packets chained so far). See SwitchConfig.packet_chaining.
        chain_last_input = [-1] * radix
        chain_last_delivered = [-1] * radix
        chain_length = [0] * radix
        chained_grants = 0

        wake_heap: List[int] = [0]
        pending_wakes = {0}

        def wake(t: int, now: int) -> None:
            """Schedule a wake at ``t``, which must come after cycle ``now``.

            A wake at or before the current cycle would never be visited,
            and whatever it was for would silently not happen.
            """
            nonlocal heap_pushes
            if t <= now:
                raise SimulationError(
                    f"wake scheduled at cycle {t}, not after the current cycle {now}"
                )
            if t < horizon and t not in pending_wakes:
                heapq.heappush(wake_heap, t)
                pending_wakes.add(t)
                heap_pushes += 1

        # Without faults, a cycle that only appends arrivals to source
        # queues skips arbitration. Under a fault plan every cycle
        # arbitrates: stall and dead-crosspoint masks count per wake.
        arbitrate_every_cycle = injector is not None
        if injector is not None:
            # Stall boundaries and bit-flip cycles must be wake times so
            # this sparse kernel re-evaluates exactly when the per-cycle
            # flit kernel would (kernel parity under an active plan).
            for t in injector.wake_cycles():
                wake(t, -1)

        on_created = stats.on_created

        def top_up_input(port_index: int, now: int) -> int:
            entries = saturating.get(port_index)
            admitted = 0
            if entries is not None:  # keep buffers full
                port = inputs[port_index]
                for source, queue in entries:
                    admitted += _top_up(source, port, queue, now, on_created)
            return admitted

        refill_saturating = _saturating_refill(saturating, top_up_input, packet_ids)

        # Request reuse per (output, input): (stamp, allow_gl, gl_denied,
        # request, head). An input's stamp moves on every mutation, so a
        # matching stamp and allow_gl prove the head, the masked GL head
        # and the occupancy the request reports are all unchanged since
        # the entry was built.
        reuse: List[List[Optional[_ReuseEntry]]] = [[None] * radix for _ in range(radix)]

        def book_grant(
            o: int, in_port: int, packet: Packet, contenders: int, now: int
        ) -> int:
            """Pop the granted packet and run the shared delivery bookkeeping.

            Every arbitration path — per-output arbiters, switch-wide
            iterative matching and a batched step — funnels through here,
            so transmission timing, packet chaining, drop/dup fault
            accounting, statistics, trace/collected events, and the
            freed-buffer refill can never drift between them. Returns the
            delivery cycle.
            """
            nonlocal grants, chained_grants, fault_drops, fault_dups
            port = inputs[in_port]
            freed = port.pop_packet(packet)
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
                        fault_kind="packet-drop",
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
                            fault_kind="packet-dup",
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
            wake(delivered, now)
            # Freed space in this buffer (and only here): admit waiting
            # and saturating packets now so their injection timestamps are
            # exact.
            if freed in backlogged:
                drain(port, freed, now)
            if saturating:
                top_up_input(in_port, now)
            return delivered

        step = self._batched_step(book_grant, injector, event_hook)

        # Visited cycles are the wake heap's entries merged with the
        # arrival stream; a cycle in both is one heap wake.
        while True:
            if wake_heap and wake_heap[0] <= next_arrival:
                now = heapq.heappop(wake_heap)
                pending_wakes.discard(now)
                quiet = False
            elif next_arrival < horizon:
                now = next_arrival
                quiet = not arbitrate_every_cycle
            else:
                break

            # 1. Scheduled arrivals at `now`. An arrival of a flow that
            #    already waits joins its source queue; only the others are
            #    offered to their buffer. Ids and lengths are drawn here,
            #    in arrival order.
            while next_arrival == now:
                index = arrival_sources[cursor]
                entry = (
                    now,
                    next(packet_ids),
                    lengths[index] or draw_length(index, now),
                )
                queued = source_queues[index]
                if queued:
                    queued.append(entry)  # FIFO behind older packets
                    if gauge_hook is not None and len(queued) > max_overflow_depth:
                        max_overflow_depth = len(queued)
                else:
                    source, port, queue = landing[index]
                    if offer(port, queue, source.flow, queued, entry, now):
                        quiet = False
                    elif gauge_hook is not None:
                        max_overflow_flows = max(max_overflow_flows, overflow.flows)
                        max_overflow_depth = max(max_overflow_depth, 1)
                cursor += 1
                next_arrival = arrival_times[cursor]
            if now >= next_touch:
                next_touch = offered.touch(now)

            # 2. Top up saturating sources. Backlogged overflow needs no
            #    retry here: no space freed in its buffer since that
            #    buffer's last drain, right after its last grant.
            if saturating and refill_saturating(now):
                quiet = False

            if quiet:
                # Nothing an arbiter reads changed since the last step 3:
                # every idle output then had no free requester or a retry
                # queued, and a retry is a heap wake. Only a refill that
                # burned packet ids makes this cycle a wake.
                if saturating:
                    wakes += 1
                continue
            wakes += 1

            # 2b. Counter bit-flips fire before any arbitration this cycle,
            #     mirroring the flit kernel's per-cycle ordering.
            if faults_flips:
                for spec in injector.counter_flips_at(now):
                    if step is None:
                        arbiters[spec.output].inject_counter_bitflip(
                            spec.input_port, spec.bit, now
                        )
                    else:
                        step.flip(spec.output, spec.input_port, spec.bit, now)
                    fault_flips_applied += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            fault_kind="counter-bitflip",
                            output=spec.output,
                            input=spec.input_port,
                            bit=spec.bit,
                        )

            # 3. A batched step arbitrates every idle output at once.
            if step is not None:
                step.arbitrate(now)
                continue

            # 3a. Switch-wide iterative matching: one match() call covers
            #     every idle output this cycle. One pass over the inputs
            #     builds each free input's request row (ascending outputs)
            #     and counts each output's requesters, the contenders its
            #     grant reports.
            if scheduler is not None:
                free_outputs = [o for o in range(radix) if outputs[o].busy_until <= now]
                if not free_outputs:
                    continue
                backlog: Dict[int, Dict[int, int]] = {}
                requesters = [0] * radix
                for port in inputs:
                    if port.busy_until > now or port.total_occupancy_flits == 0:
                        continue
                    if faults_stall and injector.stalled(port.port, now):
                        # A stalled input raises no request lines at all
                        # this cycle; its whole backlog is masked.
                        fault_stall_masks += 1
                        continue
                    row = port.voq_backlog(free_outputs)
                    if faults_dead:
                        for dead_o in list(row):
                            if injector.crosspoint_dead(port.port, dead_o):
                                # A dead crosspoint cannot raise its request
                                # line; that VOQ sits blocked in place.
                                del row[dead_o]
                                fault_dead_masks += 1
                    if row:
                        backlog[port.port] = row
                        for o in row:
                            requesters[o] += 1
                if not backlog:
                    continue
                arbitrations += 1
                matching = scheduler.match(backlog, free_outputs, now)
                pairs = matching.pairs
                voq_matches += 1
                voq_pairs += len(pairs)
                voq_iterations += matching.iterations
                voq_proposals += matching.proposals
                if event_hook is not None:
                    event_hook(
                        "match",
                        now,
                        scheduler=scheduler.name,
                        requests=len(backlog),
                        free_outputs=len(free_outputs),
                        pairs=len(pairs),
                        iterations=matching.iterations,
                        proposals=matching.proposals,
                    )
                if not pairs:
                    declines += 1
                for in_port, o in sorted(pairs, key=itemgetter(1)):
                    packet = inputs[in_port].head_for_output(o, allow_gl=True)
                    if packet is None:
                        raise SimulationError(
                            f"{scheduler.name} matched input {in_port} to "
                            f"output {o} but that VOQ is empty"
                        )
                    book_grant(o, in_port, packet, requesters[o], now)
                if len(pairs) < len(backlog):
                    # Some requesting input went unmatched (bounded
                    # iterations, a sampling collision, or a stale window
                    # slot): retry next cycle like a declining arbiter.
                    # A Matching names each input at most once.
                    wake(now + 1, now)
                continue

            # 3b. Per-output arbiters: arbitrate idle outputs, rotating the
            #     start to avoid bias. Only free inputs holding a packet for
            #     the output are visited: any other input has no head, no
            #     masked GL head and no fault-masked request for it, so an
            #     output no input holds a packet for is skipped whole.
            #     GLPolicer.eligible is pure, so asking it for an output
            #     whose holders are all busy changes nothing.
            for k in range(radix):
                o = (now + k) % radix
                if not demand[o] or outputs[o].busy_until > now:
                    continue
                policer = policers[o]
                allow_gl = policer is None or policer.eligible(now)
                reuse_o = reuse[o]
                requests = []
                gl_denied_inputs = []
                for port in inputs:
                    if not port.to_output[o] or port.busy_until > now:
                        continue
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
                    stamp = port.stamp
                    entry = reuse_o[port.port]
                    if entry is None or entry[0] != stamp or entry[1] is not allow_gl:
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
                        entry = reuse_o[port.port] = (
                            stamp, allow_gl, gl_denied, request, head
                        )
                    if entry[2]:
                        gl_denied_inputs.append(port.port)
                    request = entry[3]
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
                arbiter = arbiters[o]
                winner = arbiter.select(requests, now)
                if winner is None:
                    declines += 1
                    wake(now + 1, now)  # non-work-conserving decline: retry
                    continue
                arbiter.commit(winner, now)
                # The winner's entry was built or matched at its input's
                # current stamp above, so it holds the head the request
                # describes; pop_packet checks that it still is the head.
                entry = reuse_o[winner.input_port]
                packet = entry[4] if entry is not None else None
                if packet is None or packet.flits != winner.packet_flits:
                    raise SimulationError(
                        f"arbiter granted a request that is no longer head-of-line "
                        f"at input {winner.input_port}"
                    )
                book_grant(o, winner.input_port, packet, len(requests), now)

        if step is not None:
            arbitrations = step.arbitrations
            gl_throttles = step.gl_throttles
            fault_stall_masks = step.stall_masks
            fault_dead_masks = step.dead_masks
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
                ("kernel.overflow_flows_scanned", overflow.scans),
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

        offered.finish()
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
            kernel=self.kernel,
        )
