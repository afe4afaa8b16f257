"""Array-batched arbitration: one cycle's SSVC decisions as matrix ops.

:class:`ArraySimulation` runs :meth:`Simulation.run`, the one run loop,
and differs from the event kernel only in how it arbitrates: once per
wake, :class:`_ArrayStep` decides every idle output at once with NumPy
integer operations on ``(output, input)`` matrices, and passes each winner
to the loop's grant bookkeeping. Arrivals, top-up, overflow, wake times,
statistics, traces and probe counters are the loop's own, so the schedule
is the event kernel's bit for bit:

* request state per class lives in ``(output, input)`` matrices — GB head
  flits, GL/BE head destinations, auxVC counters in exact subtick units;
* the SSVC coarse level is a floor-divide + minimum over the counter
  matrix, and the GB thermometer mask and the GL > GB > BE plane priority
  collapse into one integer *coarse band* per crosspoint
  (:func:`repro.core.vectorized.coarse_row`);
* the LRG tie-break is a per-output rank vector fused into a composite key
  ``coarse * radix + rank`` whose row-wise argmin is the grant decision;
* GL policer eligibility is one integer threshold per output
  (:func:`repro.core.vectorized.gl_eligibility_threshold`), recomputed only
  when the usage clock moves.

The grant path compares **integers only**, and every counter uses the same
subtick units as :class:`repro.core.ssvc.SSVCCore`, so equality with the
event kernel is exact, not approximate. ``tests/test_array_kernel_parity.py``
holds the kernel to that contract; see docs/KERNELS.md.

The kernel supports exactly the paper's three-class SSVC arbitration stack
(the :class:`~repro.qos.three_class.ThreeClassArbiter` with an SSVC GB
plane — the default arbiter) on classic ports. Other arbiters, full-VOQ
ports and packet chaining stay on the event kernel, which remains the
oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..config import SwitchConfig
from ..core import vectorized as vec
from ..core.ssvc import SSVCCore
from ..errors import ArbitrationError, ConfigError, SimulationError
from ..faults import FaultInjector, FaultPlan
from ..obs.probe import EventHook, Probe
from ..qos.ssvc_arbiter import SSVCArbiter
from ..qos.three_class import ThreeClassArbiter
from ..types import CounterMode, TrafficClass
from .buffers import FlitBuffer
from .crossbar import ArbiterFactory
from .flit import Packet
from .simulator import BatchedStep, BookGrant, Simulation

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from ..traffic.flows import Workload

#: Coarse band of a crosspoint presenting nothing (mirrors vectorized.py).
_NO_REQ = vec.NO_REQUEST
#: Masked-entry sentinel (busy/stalled/dead/empty inputs).
_BIG = vec.MASKED


class ArraySimulation(Simulation):
    """Batched-arbitration twin of :class:`Simulation` (``kernel="array"``).

    Accepts the same arguments as :class:`Simulation` and produces a
    bit-identical :class:`SimulationResult` (``result.kernel == "array"``).
    Raises :class:`ConfigError` at construction for features the batched
    step does not model: packet chaining, full-VOQ ports and arbiters
    other than the three-class SSVC stack.
    """

    kernel = "array"

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
        cores: List[SSVCCore] = []
        for o, arb in enumerate(self.switch.arbiters):
            gb = getattr(arb, "gb_arbiter", None)
            if not isinstance(arb, ThreeClassArbiter) or not isinstance(
                gb, SSVCArbiter
            ):
                raise ConfigError(
                    f"the array kernel vectorizes the three-class SSVC stack; "
                    f"output {o} uses arbiter {getattr(arb, 'name', '?')!r} "
                    "(use the event kernel for other arbitration policies)"
                )
            stacks.append(arb)
            cores.append(gb.core)
        self._stacks = stacks
        self._cores = cores
        if (config.qos.levels + 2) * config.radix >= _NO_REQ:
            raise ConfigError(
                f"radix {config.radix} with {config.qos.levels} coarse levels "
                "overflows the array kernel's composite priority key"
            )

    def _batched_step(
        self,
        book_grant: BookGrant,
        injector: Optional[FaultInjector],
        event_hook: Optional[EventHook],
    ) -> BatchedStep:
        return _ArrayStep(self, book_grant, injector, event_hook)


class _ArrayStep:
    """One run's batched three-class SSVC arbitration.

    Holds the SSVC state as ``(output, input)`` matrices (counters, vticks,
    epochs, LRG ranks), mirrors of each input's head packets, and the
    coarse-band and composite-key matrices rebuilt from them. The mirrors
    follow the ports through :attr:`InputPort.stamp`: an input whose stamp
    moved since it was last mirrored (an arrival, a top-up or a drain
    changed it) is re-read before the wake's arbitration, and the queue a
    grant popped right after the grant. Only crosspoints whose head or
    counter changed are re-banded; the keys of their rows are rebuilt
    (``keydirty``), and whole rows are re-banded (``rowdirty``) after a
    window decay, a policer flip or a saturation.
    """

    def __init__(
        self,
        sim: ArraySimulation,
        book_grant: BookGrant,
        injector: Optional[FaultInjector],
        event_hook: Optional[EventHook],
    ) -> None:
        switch = sim.switch
        n = self.n = switch.radix
        self.inputs = switch.inputs
        self.outputs = switch.outputs
        stacks = sim._stacks
        self.cores = sim._cores
        self.policers = policers = [stack.gl_policer for stack in stacks]
        self.book_grant = book_grant
        self.event_hook = event_hook
        self.count_contenders = event_hook is not None or sim.collect_events
        self.injector = injector
        self.faults_stall = injector is not None and injector.has_stalls
        self.faults_dead = injector is not None and injector.has_dead
        self.arbitrations = 0
        self.gl_throttles = 0
        self.stall_masks = 0
        self.dead_masks = 0
        qos = sim.config.qos
        self.levels = qos.levels
        self.quantum = qos.quantum
        self.counter_bits = qos.counter_bits
        self.mode = qos.counter_mode
        self.sync_needed = qos.counter_mode is CounterMode.SUBTRACT

        # Matrices are [output, input] in int64; counters use the exact
        # subtick units exported by each output's SSVCCore, so the integer
        # arithmetic below is the reference arithmetic, just batched.
        self.value = np.zeros((n, n), dtype=np.int64)
        self.vtick = np.zeros((n, n), dtype=np.int64)
        self.registered = np.zeros((n, n), dtype=np.bool_)
        self.epoch = np.zeros((n, n), dtype=np.int64)
        self.rank = np.zeros((n, n), dtype=np.int64)
        self.qn: List[int] = []
        self.sat: List[int] = []
        self.scale: List[int] = []
        self.thr: List[int] = []
        for o, stack in enumerate(stacks):
            state = self.cores[o].export_state()
            self.qn.append(state.quantum_num)
            self.sat.append(state.saturation_num)
            self.scale.append(state.scale)
            if state.saturation_num + state.quantum_num >= 1 << 62:
                raise ConfigError(
                    f"output {o}: subtick scale {state.scale} puts the "
                    "saturation register beyond the array kernel's int64 range"
                )
            for i, (vtick_num, value_num, epoch) in state.flows.items():
                self.vtick[o, i] = vtick_num
                self.value[o, i] = value_num
                self.epoch[o, i] = epoch
                self.registered[o, i] = True
            self.rank[o] = vec.lrg_ranks(stack.lrg.order)
            pol = policers[o]
            self.thr.append(
                vec.gl_eligibility_threshold(
                    pol.usage_clock, pol.config.burst_window, pol.config.reserved_rate
                )
            )
        self.qn_col = np.array(self.qn, dtype=np.int64).reshape(n, 1)
        # Outputs whose eligibility can flip over time (positive reservation
        # with a finite burst window); the rest are constant for the run.
        self.dynamic_policed = [
            o
            for o, pol in enumerate(policers)
            if pol.config.reserved_rate > 0.0 and pol.config.burst_window is not None
        ]
        self.allow: List[bool] = [0 >= t for t in self.thr]
        self.min_epoch_done = int(self.epoch.min()) if self.sync_needed else 0

        # Head mirrors. ``seen`` holds each input's stamp when it was last
        # mirrored; -1 makes the first wake read every input.
        self.seen = [-1] * n
        self.gl_dst = np.full(n, -1, dtype=np.int64)
        self.gl_flits = np.zeros(n, dtype=np.int64)
        self.be_dst = np.full(n, -1, dtype=np.int64)
        self.be_flits = np.zeros(n, dtype=np.int64)
        self.gb_head = np.zeros((n, n), dtype=np.int64)
        self.gl_count = 0
        self.be_count = 0
        # The queues each input can ever fill, as (queue, GB output or -1)
        # with the head last mirrored from each: the GL and BE queues and
        # the GB queues its GB flows land in.
        self.watched: List[List[Tuple[FlitBuffer, int]]] = [
            [(port.gl_queue, -1), (port.be_queue, -1)] for port in self.inputs
        ]
        #: Index of the GB queue for output ``o`` in ``watched[i]``.
        self.gb_slot: List[Dict[int, int]] = [{} for _ in range(n)]
        for spec in sim.workload:
            flow = spec.flow
            if flow.traffic_class is TrafficClass.GB:
                port = self.inputs[flow.src]
                self.gb_slot[flow.src][flow.dst] = len(self.watched[flow.src])
                self.watched[flow.src].append((port.gb_queues[flow.dst], flow.dst))
        self.mirrored: List[List[Optional[Packet]]] = [
            [None] * len(queues) for queues in self.watched
        ]
        self.busy = np.zeros(n, dtype=np.int64)
        self.occupied = np.zeros(n, dtype=np.bool_)

        self.coarse = np.full((n, n), _NO_REQ, dtype=np.int64)
        self.key = np.zeros((n, n), dtype=np.int64)
        self.rowdirty: Set[int] = set(range(n))
        self.keydirty: Set[int] = set()
        # Requesting crosspoints per output row: a row whose count is zero
        # has nothing to arbitrate, throttle, or fault-mask this cycle, so
        # the per-wake work scales with *contended* outputs, not radix.
        self.present_count = [0] * n
        self.active = np.empty(n, dtype=np.bool_)
        self.colok_buf = np.empty(n, dtype=np.bool_)
        self.rowmask_buf = np.empty(n, dtype=np.bool_)
        self.stalled = np.zeros(n, dtype=np.bool_)
        self.live = (
            np.array(
                [
                    [not injector.crosspoint_dead(i, o) for i in range(n)]
                    for o in range(n)
                ],
                dtype=np.bool_,
            )
            if self.faults_dead and injector is not None
            else np.ones((n, n), dtype=np.bool_)
        )

    # ------------------------------------------------------ incremental state

    def _rebuild_row(self, o: int) -> None:
        """Recompute one output's coarse bands from the head mirrors."""
        lvl = self.value[o] // self.qn[o]
        np.minimum(lvl, self.levels - 1, out=lvl)
        gb_here = self.gb_head[o] != 0
        unregistered = gb_here & ~self.registered[o]
        if bool(np.any(unregistered)):
            # tie-break: only names the first offender for the error
            # message; the raise aborts the run either way.
            bad = int(np.argmax(unregistered))
            raise ArbitrationError(f"input {bad} has no GB reservation at this output")
        if self.gl_count or self.be_count:
            self.coarse[o] = vec.coarse_row(
                self.gl_dst == o,
                gb_here,
                self.be_dst == o,
                lvl,
                self.allow[o],
                self.levels,
            )
        else:
            lvl += 1
            self.coarse[o] = np.where(gb_here, lvl, _NO_REQ)
        self.present_count[o] = int(np.count_nonzero(self.coarse[o] != _NO_REQ))

    def _refresh(self, o: int, i: int) -> None:
        """Recompute one crosspoint's coarse band (head/counter change)."""
        levels = self.levels
        if self.allow[o] and int(self.gl_dst[i]) == o:
            band = 0
        elif int(self.gb_head[o, i]) != 0:
            if not self.registered[o, i]:
                raise ArbitrationError(f"input {i} has no GB reservation at this output")
            lvl = int(self.value[o, i]) // self.qn[o]
            band = (lvl if lvl < levels - 1 else levels - 1) + 1
        elif int(self.be_dst[i]) == o or int(self.gl_dst[i]) == o:
            band = levels + 1
        else:
            band = _NO_REQ
        was_present = int(self.coarse[o, i]) != _NO_REQ
        self.coarse[o, i] = band
        if (band != _NO_REQ) != was_present:
            self.present_count[o] += 1 if band != _NO_REQ else -1
        self.keydirty.add(o)

    def _mirror_shared(
        self, head: Optional[Packet], dst: vec.IntArray, flits: vec.IntArray, i: int
    ) -> int:
        """Mirror input ``i``'s head of one shared (GL or BE) queue.

        Returns the change in the number of inputs with a head there.
        """
        old = int(dst[i])
        if head is None:
            if old < 0:
                return 0
            dst[i] = -1
            flits[i] = 0
            self._refresh(old, i)
            return -1
        flits[i] = head.flits
        if head.dst != old:
            dst[i] = head.dst
            if old >= 0:
                self._refresh(old, i)
            self._refresh(head.dst, i)
        return 1 if old < 0 else 0

    def _mirror_head(self, i: int, k: int, head: Optional[Packet]) -> None:
        """Mirror ``head``, the new head of input ``i``'s ``k``-th queue."""
        self.mirrored[i][k] = head
        o = self.watched[i][k][1]
        if o >= 0:
            self.gb_head[o, i] = head.flits if head is not None else 0
            self._refresh(o, i)
        elif k == 0:
            self.gl_count += self._mirror_shared(head, self.gl_dst, self.gl_flits, i)
        else:
            self.be_count += self._mirror_shared(head, self.be_dst, self.be_flits, i)

    def _mirror_input(self, i: int) -> None:
        """Re-read input ``i``'s heads and re-band what they changed."""
        port = self.inputs[i]
        self.seen[i] = port.stamp
        self.occupied[i] = port.total_occupancy_flits > 0
        mirrored = self.mirrored[i]
        for k, (queue, _) in enumerate(self.watched[i]):
            head = queue.head()
            if head is not mirrored[k]:
                self._mirror_head(i, k, head)

    def _mirror_grant(self, w: int, k: int) -> None:
        """Re-read input ``w`` after a grant popped its ``k``-th queue.

        Only that queue's head can have moved: the grant popped it, and
        the loop drains backlog into that buffer only. Top-up at ``w``
        adds to saturating buffers, which are never empty once the first
        wake filled them, so it moves no head. The popped head always
        moves, so a GB winner's crosspoint is re-banded with its new
        counter here.
        """
        port = self.inputs[w]
        self.seen[w] = port.stamp
        self.occupied[w] = port.total_occupancy_flits > 0
        self._mirror_head(w, k, self.watched[w][k][0].head())

    def _advance(self, now: int) -> None:
        """Bring counters and GL eligibility to cycle ``now``.

        SUBTRACT-mode window decay is applied to the whole matrix at once:
        the reference core syncs each flow lazily at first touch within a
        cycle, and the identical clamped decay up front is equivalent
        (``max(max(v-a,0)-b,0) == max(v-a-b,0)``). Both parts are no-ops
        when called again at the same cycle.
        """
        if self.sync_needed:
            now_epoch = now // self.quantum
            if now_epoch > self.min_epoch_done:
                delta = now_epoch - self.epoch
                np.maximum(delta, 0, out=delta)
                np.minimum(delta, self.levels, out=delta)
                self.value -= delta * self.qn_col
                np.maximum(self.value, 0, out=self.value)
                np.maximum(self.epoch, now_epoch, out=self.epoch)
                self.min_epoch_done = now_epoch
                self.rowdirty.update(range(self.n))
        allow = self.allow
        for o in self.dynamic_policed:
            eligible = now >= self.thr[o]
            if eligible != allow[o]:
                allow[o] = eligible
                if self.gl_count:
                    self.rowdirty.add(o)

    # ------------------------------------------------------------- the step

    def flip(self, output: int, input_port: int, bit: int, now: int) -> None:
        """Flip one bit of one auxVC counter, after this cycle's decay."""
        self._advance(now)
        if bit < 0 or bit >= self.counter_bits:
            raise ConfigError(f"bit {bit} outside the {self.counter_bits}-bit register")
        if not self.registered[output, input_port]:
            raise ArbitrationError(
                f"input {input_port} has no GB reservation at this output"
            )
        scale = self.scale[output]
        value = int(self.value[output, input_port])
        cycles = value // scale
        flipped = value + ((cycles ^ (1 << bit)) - cycles) * scale
        self.value[output, input_port] = min(flipped, self.sat[output])
        self._refresh(output, input_port)

    def arbitrate(self, now: int) -> None:  # noqa: C901 (one wake, batched)
        """Grant every idle output whose best request wins, in one pass."""
        self._advance(now)
        seen = self.seen
        for i, port in enumerate(self.inputs):
            if port.stamp != seen[i]:
                self._mirror_input(i)
        n = self.n
        coarse = self.coarse
        key = self.key
        rank = self.rank
        rowdirty = self.rowdirty
        keydirty = self.keydirty
        if rowdirty:
            for o in rowdirty:
                self._rebuild_row(o)
            keydirty |= rowdirty
            rowdirty.clear()
        if keydirty:
            for o in keydirty:
                np.multiply(coarse[o], n, out=key[o])
                key[o] += rank[o]
            keydirty.clear()

        outputs = self.outputs
        inputs = self.inputs
        present_count = self.present_count
        allow = self.allow
        levels = self.levels
        injector = self.injector
        faults_stall = self.faults_stall
        faults_dead = self.faults_dead
        event_hook = self.event_hook
        gl_dst = self.gl_dst
        busy = self.busy
        active = self.active
        stalled = self.stalled
        live = self.live
        value = self.value
        sat = self.sat
        noreq_limit = _NO_REQ * n
        # Rows with no requesting crosspoint (the common case away from
        # contended outputs) are skipped before any array work; the
        # availability columns are built on the first row that needs them.
        cols_ready = False
        col_ok = active
        for k in range(n):
            o = (now + k) % n
            if outputs[o].busy_until > now or not present_count[o]:
                continue
            if not cols_ready:
                np.less_equal(busy, now, out=active)
                np.logical_and(active, self.occupied, out=active)
                if faults_stall and injector is not None:
                    for i in range(n):
                        stalled[i] = injector.stalled(i, now)
                    col_ok = self.colok_buf
                    np.logical_not(stalled, out=col_ok)
                    np.logical_and(active, col_ok, out=col_ok)
                cols_ready = True

            if faults_stall or faults_dead:
                present = coarse[o] < _NO_REQ
                avail = active
                if faults_stall:
                    self.stall_masks += int(np.count_nonzero(active & stalled & present))
                    avail = active & ~stalled
                if faults_dead:
                    self.dead_masks += int(np.count_nonzero(avail & ~live[o] & present))

            if self.gl_count and not allow[o]:
                denied = active & (gl_dst == o)
                if faults_stall:
                    denied &= ~stalled
                if faults_dead:
                    denied &= live[o]
                if bool(denied.any()):
                    policer = self.policers[o]
                    for i in np.nonzero(denied)[0].tolist():
                        policer.note_throttled(now, i)
                        self.gl_throttles += 1
                        if event_hook is not None:
                            event_hook("gl_throttle", now, output=o, input=i)

            if faults_dead:
                np.logical_and(col_ok, live[o], out=self.rowmask_buf)
                row = np.where(self.rowmask_buf, key[o], _BIG)
            else:
                row = np.where(col_ok, key[o], _BIG)
            # tie-break: composite keys are unique within a row (LRG ranks
            # are a permutation), so argmin never faces a tie.
            w = int(row.argmin())
            mv = int(row[w])
            if mv >= noreq_limit:
                continue
            self.arbitrations += 1
            band = mv // n

            # The band encodes the presented head unambiguously: derive the
            # winner's class and flits from the mirrors.
            # ``slot`` indexes the granted queue in ``watched[w]``.
            winner_class: Optional[TrafficClass]
            if band == 0:
                expected = int(self.gl_flits[w])
                winner_class = TrafficClass.GL
                slot = 0
            elif band <= levels:
                expected = int(self.gb_head[o, w])
                winner_class = TrafficClass.GB
                slot = self.gb_slot[w][o]
            elif int(self.be_dst[w]) == o:
                expected = int(self.be_flits[w])
                winner_class = TrafficClass.BE
                slot = 1
            else:
                expected = int(self.gl_flits[w])  # policer-demoted GL head
                winner_class = None
                slot = 0

            contenders = 0
            if self.count_contenders:
                contenders = int(np.count_nonzero(row < _NO_REQ))

            # Commit — the exact grant-time updates of the scalar stack.
            if winner_class is TrafficClass.GB:
                v = int(value[o, w]) + int(self.vtick[o, w])
                if self.sync_needed:
                    # SUBTRACT: only the winner can newly reach saturation
                    # (every other counter was clamped when it last
                    # changed), so a scalar clamp suffices.
                    value[o, w] = min(v, sat[o])
                else:
                    value[o, w] = v
                    if int(value[o].max()) >= sat[o]:
                        np.minimum(value[o], sat[o], out=value[o])
                        if self.mode is CounterMode.HALVE:
                            value[o] //= 2
                            self.cores[o].halve_events += 1
                        else:
                            value[o].fill(0)
                            self.cores[o].reset_events += 1
                        rowdirty.add(o)
            elif winner_class is TrafficClass.GL:
                policer = self.policers[o]
                policer.on_transmit(expected, now)
                self.thr[o] = vec.gl_eligibility_threshold(
                    policer.usage_clock,
                    policer.config.burst_window,
                    policer.config.reserved_rate,
                )
            # A BE winner, or a demoted GL head served best-effort, pays no
            # reservation charge; every winner moves to the back of the LRG.
            vec.lrg_commit(rank[o], w)
            keydirty.add(o)

            port = inputs[w]
            packet = port.head_for_output(o, allow_gl=allow[o])
            if packet is None or packet.flits != expected:
                raise SimulationError(
                    f"arbiter granted a request that is no longer head-of-line "
                    f"at input {w}"
                )
            busy[w] = self.book_grant(o, w, packet, contenders, now)
            active[w] = False
            if col_ok is not active:
                col_ok[w] = False
            # Keys re-banded here are rebuilt at the next wake: the rest of
            # this one masks the now-busy input ``w``.
            self._mirror_grant(w, slot)
