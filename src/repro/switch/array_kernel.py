"""Array-batched simulation kernel: one cycle's arbitration as matrix ops.

:class:`ArraySimulation` reproduces the event kernel's schedule bit for bit
(same wake times, same grants, same trace events, same probe counters) while
replacing the per-output, per-input Python arbitration loop with NumPy
integer matrix operations batched across **all outputs at once**:

* request state per class lives in ``(output, input)`` matrices — GB head
  flits, GL/BE head destinations, auxVC counters in exact subtick units;
* the SSVC coarse-level compare is a floor-divide + minimum over the
  counter matrix (:func:`repro.core.vectorized.thermometer_levels`);
* the GB thermometer mask and the GL > GB > BE plane priority collapse
  into one integer *coarse band* per crosspoint;
* the LRG tie-break is a per-output rank vector fused into a composite key
  ``coarse * radix + rank`` whose row-wise argmin is the grant decision;
* GL policer eligibility is one integer threshold per output
  (:func:`repro.core.vectorized.gl_eligibility_threshold`), recomputed only
  when the usage clock moves.

The grant path compares **integers only** — the scalar stack's one float
quantity (the policer clock) is folded into an integer cycle threshold
outside the per-cycle loop, and every counter uses the same subtick units
as :class:`repro.core.ssvc.SSVCCore`, so equality with the reference kernel
is exact, not approximate. ``tests/test_array_kernel_parity.py`` holds the
kernel to that contract on uniform, hotspot, GL-policed, and faulted
scenarios; see docs/KERNELS.md for the parity contract and the reasoning
behind the incremental (dirty-row) rebuild scheme.

The kernel intentionally supports exactly the paper's three-class SSVC
arbitration stack (the :class:`~repro.qos.three_class.ThreeClassArbiter`
with an SSVC GB plane — the default arbiter). Alternative arbiters (plain
LRG, WFQ, fixed-priority baselines) and packet chaining stay on the event
kernel, which remains the oracle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ..config import SwitchConfig
from ..core import vectorized as vec
from ..errors import ArbitrationError, ConfigError, SimulationError
from ..faults import FaultPlan
from ..metrics.counters import StatsCollector
from ..obs.probe import Probe, resolve_hooks
from ..qos.ssvc_arbiter import SSVCArbiter
from ..qos.three_class import ThreeClassArbiter
from ..types import CounterMode, FlowId, TrafficClass
from .buffers import FlitBuffer
from .crossbar import ArbiterFactory
from .events import GrantEvent, PacketDelivered
from .flit import Packet, fresh_packet_ids
from .simulator import (
    Simulation,
    SimulationResult,
    _checked_injector,
    _saturating_refill,
    _top_up,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from ..traffic.flows import Workload
    from ..traffic.generators import FlowSource

#: Coarse band of a crosspoint presenting nothing (mirrors vectorized.py).
_NO_REQ = vec.NO_REQUEST
#: Masked-entry sentinel (busy/stalled/dead/empty inputs).
_BIG = vec.MASKED


class ArraySimulation(Simulation):
    """Batched-arbitration twin of :class:`Simulation` (``kernel="array"``).

    Accepts the same arguments as :class:`Simulation` and produces a
    bit-identical :class:`SimulationResult` (``result.kernel == "array"``).
    Raises :class:`ConfigError` at construction for features the batched
    backend does not model: packet chaining and non-three-class arbiters.
    """

    def __init__(
        self,
        config: SwitchConfig,
        workload: "Workload",
        arbiter_factory: Optional[ArbiterFactory] = None,
        seed: int = 0,
        warmup_cycles: Optional[int] = None,
        collect_events: bool = False,
        window_cycles: int = 1024,
        probe: Optional[Probe] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(
            config,
            workload,
            arbiter_factory=arbiter_factory,
            seed=seed,
            warmup_cycles=warmup_cycles,
            collect_events=collect_events,
            window_cycles=window_cycles,
            probe=probe,
            fault_plan=fault_plan,
        )
        if config.packet_chaining:
            raise ConfigError(
                "the array kernel does not model packet chaining; use the "
                "event kernel for chained-grant experiments"
            )
        if config.voq:
            raise ConfigError(
                "the array kernel vectorizes the classic partially-queued "
                "ports; full-VOQ mode (config.voq) needs the event kernel"
            )
        stacks: List[ThreeClassArbiter] = []
        for o, arb in enumerate(self.switch.arbiters):
            if not isinstance(arb, ThreeClassArbiter) or not isinstance(
                arb.gb_arbiter, SSVCArbiter
            ):
                raise ConfigError(
                    f"the array kernel vectorizes the three-class SSVC stack; "
                    f"output {o} uses arbiter {getattr(arb, 'name', '?')!r} "
                    "(use the event kernel for other arbitration policies)"
                )
            stacks.append(arb)
        self._stacks = stacks
        if (config.qos.levels + 2) * config.radix >= _NO_REQ:
            raise ConfigError(
                f"radix {config.radix} with {config.qos.levels} coarse levels "
                "overflows the array kernel's composite priority key"
            )

    # ------------------------------------------------------------------- run

    def run(self, horizon: int) -> SimulationResult:  # noqa: C901 (kept as one
        # loop on purpose — the event kernel's run() is the line-for-line
        # template and parity auditing needs the same control flow shape)
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
        stats = StatsCollector(warmup_cycles=warmup, window_cycles=self.window_cycles)
        packet_ids = fresh_packet_ids()  # per-run ids: replayable traces
        sources = self._build_sources(horizon, packet_ids)
        events: List[object] = []
        grants = 0
        probe = self.probe
        hooks = resolve_hooks(probe)
        gauge_hook = hooks.gauge
        event_hook = hooks.event
        wakes = 0
        heap_pushes = 0
        arrivals = 0
        arbitrations = 0
        gl_throttles = 0
        overflow_scans = 0
        max_overflow_flows = 0
        max_overflow_depth = 0

        switch = self.switch
        n = switch.radix
        inputs = switch.inputs
        outputs = switch.outputs
        arbiters = switch.arbiters
        stacks = self._stacks
        policers = [stack.gl_policer for stack in stacks]
        arb_cycles_for = [switch.arbitration_cycles_for(o) for o in range(n)]
        collect = self.collect_events
        qos = self.config.qos
        levels = qos.levels
        top_level = levels - 1
        quantum = qos.quantum
        counter_bits = qos.counter_bits
        mode = qos.counter_mode
        sync_needed = mode is CounterMode.SUBTRACT

        injector = _checked_injector(self.fault_plan, n, arbiters)
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

        # ---------------------------------------------- vectorized QoS state
        # Matrices are [output, input] in int64; counters use the exact
        # subtick units exported by each output's SSVCCore so the integer
        # arithmetic below is the reference arithmetic, just batched.
        value = np.zeros((n, n), dtype=np.int64)
        vtick = np.zeros((n, n), dtype=np.int64)
        registered = np.zeros((n, n), dtype=np.bool_)
        epoch_mat = np.zeros((n, n), dtype=np.int64)
        rank = np.zeros((n, n), dtype=np.int64)
        qn: List[int] = []
        sat: List[int] = []
        scale: List[int] = []
        thr: List[int] = []
        for o, stack in enumerate(stacks):
            state = stack.gb_arbiter.core.export_state()  # type: ignore[union-attr]
            qn.append(state.quantum_num)
            sat.append(state.saturation_num)
            scale.append(state.scale)
            if state.saturation_num + state.quantum_num >= 1 << 62:
                raise ConfigError(
                    f"output {o}: subtick scale {state.scale} puts the "
                    "saturation register beyond the array kernel's int64 range"
                )
            for i, (vtick_num, value_num, epoch) in state.flows.items():
                vtick[o, i] = vtick_num
                value[o, i] = value_num
                epoch_mat[o, i] = epoch
                registered[o, i] = True
            rank[o] = vec.lrg_ranks(stack.lrg.order)
            pol = policers[o]
            thr.append(
                vec.gl_eligibility_threshold(
                    pol.usage_clock, pol.config.burst_window, pol.config.reserved_rate
                )
            )
        qn_col = np.array(qn, dtype=np.int64).reshape(n, 1)
        # Outputs whose eligibility can flip over time (positive reservation
        # with a finite burst window); the rest are constant for the run.
        dynamic_policed = [
            o
            for o, pol in enumerate(policers)
            if pol.config.reserved_rate > 0.0 and pol.config.burst_window is not None
        ]
        allow: List[bool] = [0 >= t for t in thr]
        min_epoch_done = int(epoch_mat.min()) if sync_needed else 0

        # ----------------------------------------------------- head mirrors
        gl_dst = np.full(n, -1, dtype=np.int64)
        gl_flits = np.zeros(n, dtype=np.int64)
        be_dst = np.full(n, -1, dtype=np.int64)
        be_flits = np.zeros(n, dtype=np.int64)
        gb_head = np.zeros((n, n), dtype=np.int64)
        busy_arr = np.zeros(n, dtype=np.int64)
        occ_nz = np.zeros(n, dtype=np.bool_)
        gl_count = 0
        be_count = 0
        for i, port in enumerate(inputs):
            head = port.gl_queue.head()
            if head is not None:
                gl_dst[i] = head.dst
                gl_flits[i] = head.flits
                gl_count += 1
            head = port.be_queue.head()
            if head is not None:
                be_dst[i] = head.dst
                be_flits[i] = head.flits
                be_count += 1
            for o in range(n):
                gb = port.gb_queues[o].head()
                if gb is not None:
                    gb_head[o, i] = gb.flits
            busy_arr[i] = port.busy_until
            occ_nz[i] = port.total_occupancy_flits > 0
        out_busy = [outputs[o].busy_until for o in range(n)]

        coarse = np.full((n, n), _NO_REQ, dtype=np.int64)
        key = np.zeros((n, n), dtype=np.int64)
        rowdirty: Set[int] = set(range(n))
        keydirty: Set[int] = set()
        # Requesting crosspoints per output row: a row whose count is zero
        # has nothing to arbitrate, throttle, or fault-mask this cycle, so
        # the per-wake work scales with *contended* outputs, not radix.
        present_count = [0] * n
        active = np.empty(n, dtype=np.bool_)
        colok_buf = np.empty(n, dtype=np.bool_)
        rowmask_buf = np.empty(n, dtype=np.bool_)
        stalled_np = np.zeros(n, dtype=np.bool_)
        live = (
            np.array(
                [
                    [not injector.crosspoint_dead(i, o) for i in range(n)]
                    for o in range(n)
                ],
                dtype=np.bool_,
            )
            if faults_dead and injector is not None
            else np.ones((n, n), dtype=np.bool_)
        )
        noreq_limit = _NO_REQ * n

        # --------------------------------------------- incremental rebuilds

        def rebuild_coarse_row(o: int) -> None:
            """Recompute one output's coarse bands from the head mirrors."""
            lvl = value[o] // qn[o]
            np.minimum(lvl, top_level, out=lvl)
            gb_here = gb_head[o] != 0
            if bool(np.any(gb_here & ~registered[o])):
                # tie-break: only names the first offender for the error
                # message; the raise aborts the run either way.
                bad = int(np.argmax(gb_here & ~registered[o]))
                raise ArbitrationError(
                    f"input {bad} has no GB reservation at this output"
                )
            if gl_count or be_count:
                coarse[o] = vec.coarse_row(
                    gl_dst == o, gb_here, be_dst == o, lvl, allow[o], levels
                )
            else:
                lvl += 1
                coarse[o] = np.where(gb_here, lvl, _NO_REQ)
            present_count[o] = int(np.count_nonzero(coarse[o] != _NO_REQ))

        def refresh_entry(o: int, i: int) -> None:
            """Recompute one crosspoint's coarse band (head/counter change)."""
            if allow[o] and int(gl_dst[i]) == o:
                band = 0
            elif int(gb_head[o, i]) != 0:
                if not registered[o, i]:
                    raise ArbitrationError(
                        f"input {i} has no GB reservation at this output"
                    )
                lvl = int(value[o, i]) // qn[o]
                band = (lvl if lvl < top_level else top_level) + 1
            elif int(be_dst[i]) == o or int(gl_dst[i]) == o:
                band = levels + 1
            else:
                band = _NO_REQ
            was_present = int(coarse[o, i]) != _NO_REQ
            coarse[o, i] = band
            if (band != _NO_REQ) != was_present:
                present_count[o] += 1 if band != _NO_REQ else -1
            keydirty.add(o)

        def note_new_head(flow: FlowId, flits: int, dst: int) -> None:
            """A previously-empty queue gained a head packet."""
            nonlocal gl_count, be_count
            i = flow.src
            cls = flow.traffic_class
            if cls is TrafficClass.GB:
                gb_head[dst, i] = flits
            elif cls is TrafficClass.GL:
                gl_dst[i] = dst
                gl_flits[i] = flits
                gl_count += 1
            else:
                be_dst[i] = dst
                be_flits[i] = flits
                be_count += 1
            refresh_entry(dst, i)

        # ------------------------------------------------- arrival plumbing
        # Same source grouping and per-input overflow as the event kernel.
        saturating: Dict[int, List[Tuple["FlowSource", FlitBuffer]]] = {}
        arrival_heap: List[Tuple[int, int, "FlowSource"]] = []
        for idx, source in enumerate(sources):
            if source.saturating:
                saturating.setdefault(source.flow.src, []).append(
                    (source, inputs[source.flow.src].queue_for(source.flow))
                )
            else:
                t0 = source.peek_time()
                if t0 is not None:
                    heapq.heappush(arrival_heap, (t0, idx, source))

        overflow: List[Dict[FlowId, Deque[Packet]]] = [{} for _ in range(n)]
        backlogged_flows = 0

        wake_heap: List[int] = [0]
        pending_wakes = {0}

        def wake(t: int) -> None:
            nonlocal heap_pushes
            if t < horizon and t not in pending_wakes:
                heapq.heappush(wake_heap, t)
                pending_wakes.add(t)
                heap_pushes += 1

        for t0, _, _ in arrival_heap:
            wake(int(t0))

        if injector is not None:
            for t in injector.wake_cycles():
                wake(t)

        def inject_arrival(packet: Packet, now: int) -> Optional[Deque[Packet]]:
            """Admit one scheduled arrival, mirroring head state on success.

            Returns the flow's overflow queue when the packet waits there.
            """
            nonlocal backlogged_flows
            port = inputs[packet.src]
            backlog = overflow[packet.src]
            queued = backlog.get(packet.flow)
            if queued is not None:
                queued.append(packet)  # FIFO behind older packets
                return queued
            if port.try_inject(packet, now):
                occ_nz[packet.src] = True
                # A one-packet queue means this inject created the head.
                if len(port.queue_for(packet)) == 1:
                    note_new_head(packet.flow, packet.flits, packet.dst)
                return None
            queued = backlog[packet.flow] = deque((packet,))
            backlogged_flows += 1
            return queued

        on_created = stats.on_created

        def top_up_input(port_index: int, now: int) -> None:
            entries = saturating.get(port_index)
            if entries is None:
                return
            port = inputs[port_index]
            for source, queue in entries:
                admitted = _top_up(source, port, queue, now, on_created)
                if admitted:
                    occ_nz[port_index] = True
                    if len(queue) == admitted:  # the queue was empty before
                        head = queue.head()
                        assert head is not None
                        note_new_head(source.flow, head.flits, head.dst)

        refill_saturating = _saturating_refill(saturating, top_up_input, packet_ids)

        def drain_overflow(port_index: int, now: int) -> None:
            nonlocal overflow_scans, backlogged_flows
            backlog = overflow[port_index]
            if not backlog:
                return
            overflow_scans += len(backlog)
            port = inputs[port_index]
            drained = []
            for flow, queue in backlog.items():
                packet = queue[0]
                if not port.try_inject(packet, now):
                    continue  # buffer still full — the common case
                queue.popleft()
                target = port.queue_for(packet)
                became_head = len(target) == 1
                while queue and port.try_inject(queue[0], now):
                    queue.popleft()
                occ_nz[flow.src] = True
                if became_head:
                    head = target.head()
                    assert head is not None
                    note_new_head(flow, head.flits, head.dst)
                if not queue:
                    drained.append(flow)
            for flow in drained:
                del backlog[flow]
            backlogged_flows -= len(drained)

        # ------------------------------------------------------- main loop
        while wake_heap:
            now = heapq.heappop(wake_heap)
            pending_wakes.discard(now)
            if now >= horizon:
                continue
            wakes += 1

            # 0a. Eager SUBTRACT-mode window decay: the reference core syncs
            #     each flow lazily at first touch within a cycle; applying
            #     the identical clamped decay to the whole matrix up front
            #     is equivalent (max(max(v-a,0)-b,0) == max(v-a-b,0)) and
            #     makes every later read this wake sync-free.
            if sync_needed:
                now_epoch = now // quantum
                if now_epoch > min_epoch_done:
                    delta = now_epoch - epoch_mat
                    np.maximum(delta, 0, out=delta)
                    np.minimum(delta, levels, out=delta)
                    value -= delta * qn_col
                    np.maximum(value, 0, out=value)
                    np.maximum(epoch_mat, now_epoch, out=epoch_mat)
                    min_epoch_done = now_epoch
                    rowdirty.update(range(n))

            # 0b. GL eligibility thresholds -> per-output allow bits.
            for o in dynamic_policed:
                eligible = now >= thr[o]
                if eligible != allow[o]:
                    allow[o] = eligible
                    if gl_count:
                        rowdirty.add(o)

            # 1. Scheduled arrivals up to and including `now`.
            while arrival_heap and arrival_heap[0][0] <= now:
                _, idx, source = heapq.heappop(arrival_heap)
                packet = source.pop_scheduled()
                stats.on_created(packet)
                queued = inject_arrival(packet, now)
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

            # 2. Top up saturating sources (overflow drains after grants
            #    only, as in the event kernel).
            if saturating:
                refill_saturating(now)

            # 2b. Counter bit-flips fire before any arbitration this cycle.
            if faults_flips and injector is not None:
                for spec in injector.counter_flips_at(now):
                    o_f, i_f, bit = spec.output, spec.input_port, spec.bit
                    if bit < 0 or bit >= counter_bits:
                        raise ConfigError(
                            f"bit {bit} outside the {counter_bits}-bit register"
                        )
                    if not registered[o_f, i_f]:
                        raise ArbitrationError(
                            f"input {i_f} has no GB reservation at this output"
                        )
                    cycles = int(value[o_f, i_f]) // scale[o_f]
                    flipped = int(value[o_f, i_f]) + (
                        (cycles ^ (1 << bit)) - cycles
                    ) * scale[o_f]
                    if flipped > sat[o_f]:
                        flipped = sat[o_f]
                    value[o_f, i_f] = flipped
                    refresh_entry(o_f, i_f)
                    fault_flips_applied += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            kind="counter-bitflip",
                            output=o_f,
                            input=i_f,
                            bit=bit,
                        )

            # 3. Rebuild dirty priority rows, then batch-arbitrate.
            if rowdirty:
                for o in rowdirty:
                    rebuild_coarse_row(o)
                keydirty |= rowdirty
                rowdirty.clear()
            if keydirty:
                for o in keydirty:
                    np.multiply(coarse[o], n, out=key[o])
                    key[o] += rank[o]
                keydirty.clear()

            # 4. Arbitrate idle outputs, rotating the start to avoid bias.
            #    Rows with no requesting crosspoint (the common case away
            #    from contended outputs) are skipped before any array work;
            #    the availability columns are built lazily on the first row
            #    that needs them.
            cols_ready = False
            col_ok = active
            for k in range(n):
                o = (now + k) % n
                if out_busy[o] > now or not present_count[o]:
                    continue
                if not cols_ready:
                    np.less_equal(busy_arr, now, out=active)
                    np.logical_and(active, occ_nz, out=active)
                    if faults_stall and injector is not None:
                        for i in range(n):
                            stalled_np[i] = injector.stalled(i, now)
                        np.logical_not(stalled_np, out=colok_buf)
                        np.logical_and(active, colok_buf, out=colok_buf)
                        col_ok = colok_buf
                    else:
                        col_ok = active
                    cols_ready = True

                if faults_stall or faults_dead:
                    present = coarse[o] < _NO_REQ
                    if faults_stall:
                        fault_stall_masks += int(
                            np.count_nonzero(active & stalled_np & present)
                        )
                        avail = active & ~stalled_np
                    else:
                        avail = active
                    if faults_dead:
                        fault_dead_masks += int(
                            np.count_nonzero(avail & ~live[o] & present)
                        )

                if gl_count and not allow[o]:
                    denied = active & (gl_dst == o)
                    if faults_stall:
                        denied &= ~stalled_np
                    if faults_dead:
                        denied &= live[o]
                    if bool(denied.any()):
                        policer = policers[o]
                        for i in np.nonzero(denied)[0].tolist():
                            policer.note_throttled(now, i)
                            gl_throttles += 1
                            if event_hook is not None:
                                event_hook("gl_throttle", now, output=o, input=i)

                if faults_dead:
                    np.logical_and(col_ok, live[o], out=rowmask_buf)
                    row = np.where(rowmask_buf, key[o], _BIG)
                else:
                    row = np.where(col_ok, key[o], _BIG)
                # tie-break: composite keys are unique within a row (LRG
                # ranks are a permutation), so argmin never faces a tie.
                w = int(row.argmin())
                mv = int(row[w])
                if mv >= noreq_limit:
                    continue
                arbitrations += 1
                band = mv // n
                allow_o = allow[o]

                # The event kernel's select() resolved; derive the winning
                # head's class and flits from the mirrors (the composite
                # band encodes the presented head unambiguously).
                if band == 0:
                    expected = int(gl_flits[w])
                    winner_class = TrafficClass.GL
                    eligible_gl = True
                elif band <= levels:
                    expected = int(gb_head[o, w])
                    winner_class = TrafficClass.GB
                    eligible_gl = False
                elif int(be_dst[w]) == o:
                    expected = int(be_flits[w])
                    winner_class = TrafficClass.BE
                    eligible_gl = False
                else:
                    expected = int(gl_flits[w])  # policer-demoted GL head
                    winner_class = TrafficClass.GL
                    eligible_gl = False

                contenders = 0
                if event_hook is not None or collect:
                    contenders = int(np.count_nonzero(row < _NO_REQ))

                # Commit — the exact grant-time updates of the scalar stack.
                if winner_class is TrafficClass.GB:
                    v = int(value[o, w]) + int(vtick[o, w])
                    if sync_needed:
                        # SUBTRACT: only the winner can newly reach
                        # saturation (every other counter was clamped when
                        # it last changed), so a scalar clamp suffices.
                        if v > sat[o]:
                            v = sat[o]
                        value[o, w] = v
                    else:
                        value[o, w] = v
                        if int(value[o].max()) >= sat[o]:
                            np.minimum(value[o], sat[o], out=value[o])
                            if mode is CounterMode.HALVE:
                                value[o] //= 2
                                stacks[o].gb_arbiter.core.halve_events += 1  # type: ignore[union-attr]
                            else:
                                value[o].fill(0)
                                stacks[o].gb_arbiter.core.reset_events += 1  # type: ignore[union-attr]
                            rowdirty.add(o)
                    vec.lrg_commit(rank[o], w)
                    keydirty.add(o)
                elif eligible_gl:
                    vec.lrg_commit(rank[o], w)
                    keydirty.add(o)
                    policer = policers[o]
                    policer.on_transmit(expected, now)
                    thr[o] = vec.gl_eligibility_threshold(
                        policer.usage_clock,
                        policer.config.burst_window,
                        policer.config.reserved_rate,
                    )
                else:
                    # BE winner, or a demoted GL head served best-effort
                    # (no reservation charge — eligibility was withdrawn).
                    vec.lrg_commit(rank[o], w)
                    keydirty.add(o)

                port = inputs[w]
                packet = port.head_for_output(o, allow_gl=allow_o)
                if packet is None or packet.flits != expected:
                    raise SimulationError(
                        f"arbiter granted a request that is no longer head-of-line "
                        f"at input {w}"
                    )
                port.pop_packet(packet)

                # Mirror the pop: the granted queue's next head (if any)
                # becomes visible; rows touched are refreshed after the
                # post-grant refill below settles the final head state.
                touched = [(o, w)]
                if winner_class is TrafficClass.GB:
                    nh = port.gb_queues[o].head()
                    gb_head[o, w] = nh.flits if nh is not None else 0
                elif winner_class is TrafficClass.GL:
                    nh = port.gl_queue.head()
                    if nh is None:
                        gl_dst[w] = -1
                        gl_flits[w] = 0
                        gl_count -= 1
                    else:
                        gl_dst[w] = nh.dst
                        gl_flits[w] = nh.flits
                        touched.append((int(nh.dst), w))
                else:
                    nh = port.be_queue.head()
                    if nh is None:
                        be_dst[w] = -1
                        be_flits[w] = 0
                        be_count -= 1
                    else:
                        be_dst[w] = nh.dst
                        be_flits[w] = nh.flits
                        touched.append((int(nh.dst), w))
                occ_nz[w] = port.total_occupancy_flits > 0

                delivered = outputs[o].start_transmission(
                    packet, now, arb_cycles_for[o]
                )
                out_busy[o] = delivered
                port.busy_until = delivered
                busy_arr[w] = delivered
                active[w] = False
                if col_ok is not active:
                    col_ok[w] = False

                dropped = faults_drop and injector.drop_delivery(  # type: ignore[union-attr]
                    o, packet.packet_id, now
                )
                if dropped:
                    fault_drops += 1
                    if event_hook is not None:
                        event_hook(
                            "fault",
                            now,
                            kind="packet-drop",
                            output=o,
                            input=w,
                            packet_id=packet.packet_id,
                        )
                else:
                    stats.on_delivered(packet)
                    if faults_dup and injector.duplicate_delivery(  # type: ignore[union-attr]
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
                                input=w,
                                packet_id=packet.packet_id,
                            )
                grants += 1
                if event_hook is not None:
                    event_hook(
                        "grant",
                        now,
                        output=o,
                        input=w,
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
                            input_port=w,
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
                drain_overflow(w, now)
                top_up_input(w, now)
                for o_t, i_t in touched:
                    refresh_entry(o_t, i_t)

        # ------------------------------------------------------- wrap-up
        count_hook = hooks.count
        if count_hook is not None:
            for name, total in (
                ("kernel.wakes", wakes),
                ("kernel.heap_pushes", heap_pushes),
                ("kernel.arrivals", arrivals),
                ("kernel.arbitrations", arbitrations),
                ("kernel.grants", grants),
                ("kernel.gl_throttles", gl_throttles),
                ("kernel.overflow_flows_scanned", overflow_scans),
            ):
                if total:
                    count_hook(name, total)
            if injector is not None:
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
        gl_throttle_events: Dict[int, int] = {
            o: policers[o].throttle_events for o in range(n)
        }
        return SimulationResult(
            chained_grants=0,
            config=self.config,
            workload_name=self.workload.name,
            horizon=horizon,
            warmup_cycles=warmup,
            stats=stats,
            output_utilization={o: outputs[o].utilization(horizon) for o in range(n)},
            grants=grants,
            events=events,
            gl_throttle_events=gl_throttle_events,
            kernel="array",
        )
