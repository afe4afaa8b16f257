"""Flit-granular simulation engine (validation-grade).

The production kernel (:mod:`repro.switch.simulator`) is packet-granular
with flit-accurate *timing*; its one documented simplification is that a
granted packet's buffer space frees all at once instead of one flit per
cycle (DESIGN.md Section 8). This engine removes that simplification: it
marches cycle by cycle and drains each transmitted packet's flits from its
input buffer individually, so buffer occupancy — and therefore
backpressure — is exact at flit resolution.

Use it to validate the fast kernel (their grant schedules are identical
whenever backpressure never binds — see
``tests/test_flit_kernel.py``) or when a study genuinely depends on
intra-packet buffer occupancy. It is 10-50x slower and supports scheduled
(non-saturating) GB/BE traffic without packet chaining.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

import numpy as np

from ..config import SwitchConfig
from ..core.arbitration import Request
from ..errors import ConfigError, SimulationError, TrafficError
from ..metrics.counters import StatsCollector
from ..obs.probe import Probe, resolve_hooks
from ..switch.crossbar import ArbiterFactory, SwizzleSwitch
from ..switch.events import GrantEvent
from ..switch.flit import Packet, fresh_packet_ids
from ..types import TrafficClass

if TYPE_CHECKING:  # runtime import would be circular
    from ..faults import FaultPlan
    from ..traffic.flows import Workload


@dataclass
class _QueuedPacket:
    """A packet in a flit queue, tracking how many flits remain buffered."""

    packet: Packet
    flits_remaining: int


class _FlitQueue:
    """FIFO of packets whose flits drain individually.

    ``occupancy`` counts buffered flits, including the not-yet-drained
    remainder of a packet currently on the wire.
    """

    def __init__(self, capacity_flits: int) -> None:
        self.capacity = capacity_flits
        self.entries: Deque[_QueuedPacket] = deque()
        self.occupancy = 0
        #: the entry currently transmitting (already popped from `entries`)
        self.draining: Optional[_QueuedPacket] = None

    def fits(self, packet: Packet) -> bool:
        return self.occupancy + packet.flits <= self.capacity

    def push(self, packet: Packet) -> None:
        self.entries.append(_QueuedPacket(packet, packet.flits))
        self.occupancy += packet.flits

    def head(self) -> Optional[Packet]:
        """The next packet eligible for arbitration (not yet granted)."""
        return self.entries[0].packet if self.entries else None

    def start_drain(self, packet: Packet) -> None:
        entry = self.entries.popleft()
        if entry.packet is not packet:
            raise SimulationError("granted packet is not the queue head")
        self.draining = entry

    def drain_one_flit(self) -> None:
        """One flit crossed the crossbar: free its buffer slot."""
        if self.draining is None:
            raise SimulationError("drain without an active transmission")
        self.draining.flits_remaining -= 1
        self.occupancy -= 1
        if self.draining.flits_remaining == 0:
            self.draining = None


class _FlitInput:
    """Per-input state: per-class flit queues plus a source overflow queue."""

    def __init__(self, port: int, config: SwitchConfig) -> None:
        self.port = port
        self.config = config
        self.gb: Dict[int, _FlitQueue] = {
            out: _FlitQueue(config.gb_buffer_flits) for out in range(config.radix)
        }
        self.be = _FlitQueue(config.be_buffer_flits)
        self.gl = _FlitQueue(config.gl_buffer_flits)
        self.source: Deque[Packet] = deque()
        self.busy_until = 0
        # Incremental mirror of the per-queue occupancies; bumped on inject,
        # decremented flit-by-flit as transmissions drain (the run loop owns
        # the decrement because _FlitQueue has no back-reference to us).
        self._total_occupancy = 0

    def queue_for(self, packet: Packet) -> _FlitQueue:
        if packet.traffic_class is TrafficClass.GB:
            return self.gb[packet.dst]
        if packet.traffic_class is TrafficClass.GL:
            return self.gl
        return self.be

    def try_inject(self, packet: Packet, now: int) -> bool:
        queue = self.queue_for(packet)
        if not queue.fits(packet):
            return False
        packet.injected_cycle = now
        queue.push(packet)
        self._total_occupancy += packet.flits
        return True

    def head_for_output(self, output: int, allow_gl: bool = True) -> Optional[Packet]:
        gl_head = self.gl.head()
        if allow_gl and gl_head is not None and gl_head.dst == output:
            return gl_head
        gb_head = self.gb[output].head()
        if gb_head is not None:
            return gb_head
        be_head = self.be.head()
        if be_head is not None and be_head.dst == output:
            return be_head
        if gl_head is not None and gl_head.dst == output:
            return gl_head
        return None

    @property
    def total_occupancy_flits(self) -> int:
        """Flits buffered across all classes at this input.

        Matches the fast kernel's ``InputPort.total_occupancy_flits`` so
        occupancy-sensitive arbiters see the same ``queued_flits``; it
        includes the not-yet-drained remainder of a transmitting packet,
        which both kernels agree on whenever the input is free to request
        (the drain has finished by then).
        """
        return self._total_occupancy


@dataclass
class _Transmission:
    packet: Packet
    queue: _FlitQueue
    #: the input the packet drains from (occupancy bookkeeping)
    port: "_FlitInput"
    #: cycles at which flits cross (first_flit_cycle .. last inclusive)
    first_flit_cycle: int
    last_flit_cycle: int


class FlitLevelSimulation:
    """Per-cycle flit-granular engine with the fast kernel's interface.

    Args:
        config: switch parameters (``packet_chaining`` unsupported).
        workload: scheduled flows only (saturating sources would need the
            fast kernel's top-up machinery; use it instead).
        arbiter_factory: per-output policy, as for ``Simulation``.
        seed: source RNG seed.
        warmup_cycles: measurement start (default horizon // 10 at run).
        collect_events: record grant events for differential tests.
        probe: optional :class:`~repro.obs.probe.Probe`, as for
            ``Simulation`` (counter names are shared between kernels).
        fault_plan: optional :class:`~repro.faults.FaultPlan`, as for
            ``Simulation``; the same plan produces the same fault decisions
            in both kernels (keyed-hash draws, not a consumed RNG stream).
    """

    def __init__(
        self,
        config: SwitchConfig,
        workload: "Workload",
        arbiter_factory: Optional[ArbiterFactory] = None,
        seed: int = 0,
        warmup_cycles: Optional[int] = None,
        collect_events: bool = False,
        probe: Optional[Probe] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        if config.packet_chaining:
            raise SimulationError("the flit-level engine does not model chaining")
        if config.voq:
            raise ConfigError(
                "the flit-level engine buffers BE/GL in single per-input "
                "queues; full-VOQ mode (config.voq) needs the event kernel"
            )
        for spec in workload:
            if spec.process is not None and spec.process.saturating:
                raise TrafficError(
                    "the flit-level engine supports scheduled sources only"
                )
        workload.validate(config.radix, config.gl_policer.reserved_rate)
        self.config = config
        self.workload = workload
        self.switch = SwizzleSwitch(config, arbiter_factory)
        self.seed = seed
        self._warmup_override = warmup_cycles
        self.collect_events = collect_events
        self.probe = probe
        self.fault_plan = fault_plan

    def _arrivals(self, horizon: int) -> Dict[int, List[Packet]]:
        from ..traffic.generators import FlowSource

        seeds = np.random.SeedSequence(self.seed).spawn(len(self.workload.flows))
        packet_ids = fresh_packet_ids()  # per-run ids: replayable traces
        sources = []
        for spec, child in zip(self.workload, seeds):
            if spec.process is None:
                continue
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
        # Create packets in the event kernel's arrival-stream order, so both
        # kernels assign the same packet id to the same packet (ids key
        # fault draws and trace diffs).
        from .simulator import _arrival_stream

        by_cycle: Dict[int, List[Packet]] = {}
        times, owners = _arrival_stream(
            [source.schedule for source in sources], horizon
        )
        for created, idx in zip(times, owners):
            by_cycle.setdefault(created, []).append(sources[idx].make_packet(created))
        return by_cycle

    def run(self, horizon: int):
        """Simulate ``horizon`` cycles; returns a ``SimulationResult``."""
        from .simulator import SimulationResult, _checked_injector

        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        warmup = (
            self._warmup_override
            if self._warmup_override is not None
            else horizon // 10
        )
        for spec in self.workload:
            if spec.reserved_rate is not None:
                self.switch.reserve_gb(
                    spec.flow.src, spec.flow.dst, spec.reserved_rate,
                    max(int(round(spec.mean_packet_flits)), 1),
                )
        stats = StatsCollector(warmup_cycles=warmup)
        radix = self.config.radix
        inputs = [_FlitInput(i, self.config) for i in range(radix)]
        out_busy = [0] * radix
        # One slot per output; a slot holds the in-flight transmission. A
        # fixed array avoids the per-cycle dict snapshot the old loop paid.
        active: List[Optional[_Transmission]] = [None] * radix
        active_count = 0
        arrivals = self._arrivals(horizon)
        for packets in arrivals.values():
            for packet in packets:
                stats.on_created(packet.flow, packet.created_cycle, packet.flits)
        events: List[object] = []
        grants = 0
        out_flits = [0] * radix
        probe = self.probe
        hooks = resolve_hooks(probe)
        event_hook = hooks.event
        arbitrations = 0
        declines = 0
        gl_throttles = 0
        arbiters = self.switch.arbiters
        policers = [getattr(arbiters[o], "gl_policer", None) for o in range(radix)]
        arb_cycles_for = [self.switch.arbitration_cycles_for(o) for o in range(radix)]
        collect = self.collect_events

        # Fault injection: identical hoisting and decision keys as the fast
        # kernel, so one plan produces one outcome in either engine.
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

        for now in range(horizon):
            # 1. Flits cross the crossbar and free their buffer slots.
            if active_count:
                for o in range(radix):
                    tx = active[o]
                    if tx is None:
                        continue
                    if tx.first_flit_cycle <= now <= tx.last_flit_cycle:
                        tx.queue.drain_one_flit()
                        tx.port._total_occupancy -= 1
                    if now == tx.last_flit_cycle:
                        active[o] = None
                        active_count -= 1
            # 2. Arrivals, behind any overflowed packet of the same flow.
            for packet in arrivals.get(now, ()):  # noqa: B905
                port = inputs[packet.src]
                blocked = any(
                    p.flow == packet.flow for p in port.source
                )
                if blocked or not port.try_inject(packet, now):
                    port.source.append(packet)
            # 3. Drain source queues in FIFO order.
            for port in inputs:
                if not port.source:
                    continue
                still_blocked: Deque[Packet] = deque()
                while port.source:
                    head = port.source.popleft()
                    if any(p.flow == head.flow for p in still_blocked):
                        still_blocked.append(head)
                    elif not port.try_inject(head, now):
                        still_blocked.append(head)
                port.source = still_blocked
            # 3b. Counter bit-flips fire before any arbitration this cycle
            #     (same intra-cycle position as the fast kernel).
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
                            fault_kind="counter-bitflip",
                            output=spec.output,
                            input=spec.input_port,
                            bit=spec.bit,
                        )
            # 4. Arbitration, rotating start to match the fast kernel.
            for k in range(radix):
                o = (now + k) % radix
                if out_busy[o] > now:
                    continue
                arbiter = arbiters[o]
                policer = policers[o]
                allow_gl = policer is None or policer.eligible(now)
                requests = []
                gl_denied_inputs = []
                for port in inputs:
                    if port.busy_until > now:
                        continue
                    queued = port._total_occupancy
                    if queued == 0:
                        continue  # empty input: no head, no masked GL
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
                    head = port.head_for_output(o, allow_gl=allow_gl)
                    if not allow_gl:
                        # Mirror the fast kernel: a policer-masked GL head
                        # is a throttle decision even when a GB/BE head
                        # requests in its place.
                        gl_head = port.gl.head()
                        if gl_head is not None and gl_head.dst == o:
                            gl_denied_inputs.append(port.port)
                    if head is None:
                        continue
                    requests.append(
                        Request(
                            input_port=port.port,
                            traffic_class=head.traffic_class,
                            packet_flits=head.flits,
                            queued_flits=queued,
                            arrival_cycle=(
                                head.injected_cycle
                                if head.injected_cycle is not None
                                else head.created_cycle
                            ),
                        )
                    )
                if gl_denied_inputs and policer is not None:
                    # Per-(cycle, input) accounting, matching the fast kernel.
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
                    continue
                arbiter.commit(winner, now)
                port = inputs[winner.input_port]
                packet = port.head_for_output(o, allow_gl=allow_gl)
                queue = port.queue_for(packet)
                queue.start_drain(packet)
                arb = arb_cycles_for[o]
                delivered = now + arb + packet.flits
                packet.grant_cycle = now
                packet.delivered_cycle = delivered
                out_busy[o] = delivered
                port.busy_until = delivered
                active[o] = _Transmission(
                    packet=packet,
                    queue=queue,
                    port=port,
                    first_flit_cycle=now + arb + 1,
                    last_flit_cycle=delivered,
                )
                active_count += 1
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
                            input=winner.input_port,
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
                                input=winner.input_port,
                                packet_id=packet.packet_id,
                            )
                grants += 1
                out_flits[o] += packet.flits
                if event_hook is not None:
                    event_hook(
                        "grant",
                        now,
                        output=o,
                        input=winner.input_port,
                        flow=str(packet.flow),
                        packet_id=packet.packet_id,
                        flits=packet.flits,
                        contenders=len(requests),
                        delivered=delivered,
                        latency=packet.latency,
                        waiting=packet.waiting_time,
                    )
                if collect:
                    events.append(
                        GrantEvent(
                            cycle=now,
                            output=o,
                            input_port=winner.input_port,
                            flow=packet.flow,
                            packet_id=packet.packet_id,
                            packet_flits=packet.flits,
                            contenders=len(requests),
                        )
                    )

        # Flush aggregates once (one wake per cycle in this engine).
        count_hook = hooks.count
        if count_hook is not None:
            for name, total in (
                ("kernel.wakes", horizon),
                ("kernel.arbitrations", arbitrations),
                ("kernel.declines", declines),
                ("kernel.grants", grants),
                ("kernel.gl_throttles", gl_throttles),
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

        stats.finish(horizon)
        gl_throttle_events: Dict[int, int] = {}
        for o in range(radix):
            if policers[o] is not None:
                gl_throttle_events[o] = policers[o].throttle_events
        return SimulationResult(
            config=self.config,
            workload_name=self.workload.name,
            horizon=horizon,
            warmup_cycles=warmup,
            stats=stats,
            output_utilization={
                o: out_flits[o] / horizon for o in range(radix)
            },
            grants=grants,
            events=events,
            gl_throttle_events=gl_throttle_events,
            kernel="flit",
        )
