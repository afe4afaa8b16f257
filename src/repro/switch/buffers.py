"""Input-port buffering (paper Sections 3.2, 3.3 and Table 1).

In the paper's switch (``config.voq=False``) each input port buffers the
three classes separately:

* **BE** — one queue per input (Table 1: 4 flits);
* **GB** — one virtual output queue *per output* (Table 1: 4 flits per
  output), so GB flows to different outputs never head-of-line block each
  other and "separation between flows in buffers" is maintained;
* **GL** — one queue per input ("GL class packets should be buffered
  separately from GB class packets", Section 3.2).

With ``config.voq=True`` the port is fully virtual-output-queued: BE and
GL also get one queue per output, eliminating head-of-line blocking for
every class. This is the input-queued switch model the iterative matching
schedulers (iSLIP, QPS-r, SW-QPS) assume; see docs/SCHEDULERS.md.

Capacities are in flits; a packet is admitted only if it fits entirely.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Union

from ..config import SwitchConfig
from ..errors import BufferError_, SimulationError
from ..types import FlowId, TrafficClass
from .flit import Packet


class FlitBuffer:
    """A FIFO of whole packets with a flit-denominated capacity.

    Args:
        capacity_flits: maximum total flits buffered; ``None`` means
            unbounded (used for source-side queues).
    """

    def __init__(self, capacity_flits: Optional[int] = None) -> None:
        if capacity_flits is not None and capacity_flits < 1:
            raise BufferError_(f"capacity_flits must be >= 1, got {capacity_flits}")
        self.capacity_flits = capacity_flits
        self._queue: Deque[Packet] = deque()
        self._occupancy = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._queue)

    @property
    def occupancy_flits(self) -> int:
        """Flits currently buffered."""
        return self._occupancy

    def fits(self, packet: Packet) -> bool:
        """Would ``packet`` fit entirely right now?"""
        if self.capacity_flits is None:
            return True
        return self._occupancy + packet.flits <= self.capacity_flits

    def push(self, packet: Packet) -> None:
        """Append a packet.

        Raises:
            BufferError_: if the packet does not fit (callers must check
                :meth:`fits` — backpressure is explicit, never silent).
        """
        if not self.fits(packet):
            raise BufferError_(
                f"packet of {packet.flits} flits does not fit "
                f"({self._occupancy}/{self.capacity_flits} flits occupied)"
            )
        self._queue.append(packet)
        self._occupancy += packet.flits
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy

    def head(self) -> Optional[Packet]:
        """The packet at the head, or ``None`` when empty."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Packet:
        """Remove and return the head packet.

        Raises:
            BufferError_: when empty.
        """
        if not self._queue:
            raise BufferError_("pop from empty buffer")
        packet = self._queue.popleft()
        self._occupancy -= packet.flits
        return packet

    def audit(self) -> int:
        """Recompute occupancy from the queued packets and verify it.

        Returns the recomputed occupancy. The contract pinned here (see
        tests/test_voq_occupancy_faults.py): the incremental ``_occupancy``
        always equals the sum over queued packets, never goes negative,
        never exceeds capacity, and ``peak_occupancy`` dominates it — no
        fault model (packet drop/dup fire *after* a packet left the
        buffer) may perturb this bookkeeping.

        Raises:
            BufferError_: if the incremental counter drifted from the
                queue contents (an accounting leak — a bug).
        """
        actual = sum(p.flits for p in self._queue)
        if actual != self._occupancy:
            raise BufferError_(
                f"occupancy leak: counter says {self._occupancy} flits but "
                f"{actual} are queued"
            )
        if self._occupancy < 0:
            raise BufferError_(f"negative occupancy {self._occupancy}")
        if self.capacity_flits is not None and self._occupancy > self.capacity_flits:
            raise BufferError_(
                f"occupancy {self._occupancy} exceeds capacity {self.capacity_flits}"
            )
        if self.peak_occupancy < self._occupancy:
            raise BufferError_(
                f"peak_occupancy {self.peak_occupancy} below current "
                f"occupancy {self._occupancy}"
            )
        return actual


class InputPort:
    """Per-input buffering for all three classes.

    With ``config.voq=False`` (the paper's switch) only GB is virtual-
    output-queued; BE and GL use one queue per input. With
    ``config.voq=True`` every class gets one queue per output — the
    ``be_queue``/``gl_queue`` attributes then do not exist and the
    per-output ``be_queues``/``gl_queues`` dicts replace them, so code
    reaching for the wrong mode's queues fails loudly.

    Args:
        port: input index.
        config: switch configuration (buffer depths, radix, VOQ mode).
        demand: switch-wide packets buffered per output, shared by every
            input of one switch and kept on this port's mutation paths;
            a port built on its own gets a private list.
    """

    def __init__(
        self, port: int, config: SwitchConfig, demand: Optional[List[int]] = None
    ) -> None:
        if not 0 <= port < config.radix:
            raise SimulationError(f"input port {port} out of range [0, {config.radix})")
        self.port = port
        self.config = config
        self.voq = config.voq
        self.gb_queues: Dict[int, FlitBuffer] = {
            out: FlitBuffer(config.gb_buffer_flits) for out in range(config.radix)
        }
        if self.voq:
            self.be_queues: Dict[int, FlitBuffer] = {
                out: FlitBuffer(config.be_buffer_flits) for out in range(config.radix)
            }
            self.gl_queues: Dict[int, FlitBuffer] = {
                out: FlitBuffer(config.gl_buffer_flits) for out in range(config.radix)
            }
        else:
            self.be_queue = FlitBuffer(config.be_buffer_flits)
            self.gl_queue = FlitBuffer(config.gl_buffer_flits)
        #: cycle until which this input's channel is held by a transmission
        self.busy_until = 0
        # Flits buffered across all classes, maintained incrementally by
        # try_inject/pop_packet (the only mutation paths) so the per-request
        # queued_flits read in the arbitration loop is O(1), not a sum over
        # radix+2 queues.
        self._total_occupancy = 0
        #: packets buffered per output across all classes, maintained on the
        #: same two mutation paths: a zero entry proves no head (of any
        #: class) can request that output, so the kernel skips the scan.
        self.to_output: List[int] = [0] * config.radix
        #: flits buffered per output across all classes (the VOQ backlog
        #: the matching schedulers weigh requests by), same two paths.
        self.flits_to_output: List[int] = [0] * config.radix
        #: ``to_output`` summed over every input of the switch.
        self.demand: List[int] = demand if demand is not None else [0] * config.radix
        #: bumped on every mutation, so an unchanged stamp proves every
        #: head, and the occupancy a request reports, is unchanged too.
        self.stamp = 0

    # ------------------------------------------------------------- admission

    def queue_for(self, packet: Union[Packet, FlowId]) -> FlitBuffer:
        """The buffer a packet (or every packet of a flow) lands in."""
        if packet.traffic_class is TrafficClass.GB:
            try:
                return self.gb_queues[packet.dst]
            except KeyError:
                raise SimulationError(
                    f"packet destination {packet.dst} out of range [0, {self.config.radix})"
                ) from None
        if self.voq:
            queues = (
                self.gl_queues
                if packet.traffic_class is TrafficClass.GL
                else self.be_queues
            )
            try:
                return queues[packet.dst]
            except KeyError:
                raise SimulationError(
                    f"packet destination {packet.dst} out of range [0, {self.config.radix})"
                ) from None
        if packet.traffic_class is TrafficClass.GL:
            return self.gl_queue
        return self.be_queue

    def try_inject(self, packet: Packet, now: int) -> bool:
        """Admit a packet if its class buffer has room.

        Sets ``packet.injected_cycle`` on success. Returns ``False`` (and
        leaves the packet untouched) when the buffer is full — the caller
        keeps it in its source queue.
        """
        if packet.src != self.port:
            raise SimulationError(
                f"packet from input {packet.src} offered to port {self.port}"
            )
        queue = self.queue_for(packet)
        if not queue.fits(packet):
            return False
        packet.injected_cycle = now
        queue.push(packet)
        flits = packet.flits
        dst = packet.dst
        self._total_occupancy += flits
        self.to_output[dst] += 1
        self.flits_to_output[dst] += flits
        self.demand[dst] += 1
        self.stamp += 1
        return True

    # -------------------------------------------------------------- requests

    def gl_head_for(self, output: int) -> Optional[Packet]:
        """The GL packet that would request ``output``, if any.

        Mode-agnostic accessor used by the simulator's policer-throttle
        accounting: classic mode has one GL queue whose head may or may
        not be addressed to ``output``; VOQ mode has a dedicated queue.
        """
        if self.voq:
            return self.gl_queues[output].head()
        gl_head = self.gl_queue.head()
        if gl_head is not None and gl_head.dst == output:
            return gl_head
        return None

    def head_for_output(self, output: int, allow_gl: bool = True) -> Optional[Packet]:
        """Highest-priority head-of-line packet destined for ``output``.

        Priority order GL > GB > BE, matching the hardware where an input
        raises its request with its most urgent packet. In classic mode BE
        and GL use one queue per input, so their heads only request the
        output they are addressed to (head-of-line blocking is real and
        modeled); in VOQ mode every class has a per-output queue and no
        class ever blocks another output's traffic.

        Args:
            output: the output being arbitrated.
            allow_gl: when ``False`` (the output's GL policer has revoked
                the class's priority), the GL head is offered *last* —
                GB and BE traffic at this input is no longer masked by a
                throttled GL queue, and the GL packet is only presented
                when nothing else wants the output (best-effort demotion).
        """
        if self.voq:
            gl_head = self.gl_queues[output].head()
            if allow_gl and gl_head is not None:
                return gl_head
            gb_head = self.gb_queues[output].head()
            if gb_head is not None:
                return gb_head
            be_head = self.be_queues[output].head()
            if be_head is not None:
                return be_head
            return gl_head  # throttled GL rides along as best-effort
        gl_head = self.gl_queue.head()
        if allow_gl and gl_head is not None and gl_head.dst == output:
            return gl_head
        gb_head = self.gb_queues[output].head()
        if gb_head is not None:
            return gb_head
        be_head = self.be_queue.head()
        if be_head is not None and be_head.dst == output:
            return be_head
        if gl_head is not None and gl_head.dst == output:
            return gl_head  # throttled GL rides along as best-effort
        return None

    def requested_outputs(self) -> List[int]:
        """Outputs this input currently has a head-of-line packet for."""
        outputs = {out for out, q in self.gb_queues.items() if q}
        if self.voq:
            outputs.update(out for out, q in self.gl_queues.items() if q)
            outputs.update(out for out, q in self.be_queues.items() if q)
            return sorted(outputs)
        gl_head = self.gl_queue.head()
        if gl_head is not None:
            outputs.add(gl_head.dst)
        be_head = self.be_queue.head()
        if be_head is not None:
            outputs.add(be_head.dst)
        return sorted(outputs)

    def voq_backlog(self, outputs: Iterable[int]) -> Dict[int, int]:
        """Flits queued per output among ``outputs`` (VOQ mode only).

        The iterative matching schedulers use these totals as request
        weights (QPS samples proportionally to them). Only outputs with a
        non-zero backlog appear in the result.

        Raises:
            SimulationError: in classic mode, where per-output backlog is
                not defined for the single-queue BE/GL classes.
        """
        if not self.voq:
            raise SimulationError(
                "voq_backlog() requires VOQ mode (config.voq=True)"
            )
        flits = self.flits_to_output
        return {out: flits[out] for out in outputs if flits[out]}

    def pop_packet(self, packet: Packet) -> None:
        """Remove a granted packet, which must be at the head of its queue.

        Raises:
            SimulationError: if the packet is not the head (arbitration and
                buffering disagree — a bug, not a recoverable condition).
        """
        queue = self.queue_for(packet)
        head = queue.head()
        if head is not packet:
            raise SimulationError(
                f"granted packet {packet.packet_id} is not at the head of its queue"
            )
        queue.pop()
        flits = packet.flits
        dst = packet.dst
        self._total_occupancy -= flits
        self.to_output[dst] -= 1
        self.flits_to_output[dst] -= flits
        self.demand[dst] -= 1
        self.stamp += 1

    @property
    def total_occupancy_flits(self) -> int:
        """Flits buffered across all classes at this input (O(1))."""
        return self._total_occupancy

    def all_queues(self) -> List[FlitBuffer]:
        """Every class queue at this input (mode-aware; for audits/tests)."""
        queues: List[FlitBuffer] = list(self.gb_queues.values())
        if self.voq:
            queues.extend(self.gl_queues.values())
            queues.extend(self.be_queues.values())
        else:
            queues.append(self.gl_queue)
            queues.append(self.be_queue)
        return queues

    def audit_occupancy(self) -> int:
        """Verify the incremental occupancy against every queue's contents.

        Returns the recomputed total. Contract (pinned by
        tests/test_voq_occupancy_faults.py): ``_total_occupancy`` equals
        the sum of all class queues' audited occupancies, and
        ``to_output[o]`` and ``flits_to_output[o]`` equal the number of
        queued packets, and of their flits, addressed to ``o``, at every
        point — in particular, packet-drop and packet-dup fault
        injections, which fire only after :meth:`pop_packet` removed the
        granted packet, can never leak into (or out of) any count and
        wedge admission, skew a VOQ backlog or hide a head from
        arbitration. The switch-wide ``demand`` is audited by
        :meth:`repro.switch.crossbar.SwizzleSwitch.audit_occupancy`.

        Raises:
            BufferError_: if any queue's own accounting drifted.
            SimulationError: if the queues are consistent but the port's
                incremental total or per-output counts disagree with them.
        """
        queues = self.all_queues()
        actual = sum(queue.audit() for queue in queues)
        if actual != self._total_occupancy:
            raise SimulationError(
                f"input {self.port} occupancy leak: incremental total says "
                f"{self._total_occupancy} flits but queues hold {actual}"
            )
        per_output = [0] * self.config.radix
        flits_per_output = [0] * self.config.radix
        for queue in queues:
            for packet in queue:
                per_output[packet.dst] += 1
                flits_per_output[packet.dst] += packet.flits
        if per_output != self.to_output:
            raise SimulationError(
                f"input {self.port} occupancy leak: per-output packet counts "
                f"say {self.to_output} but queues hold {per_output}"
            )
        if flits_per_output != self.flits_to_output:
            raise SimulationError(
                f"input {self.port} occupancy leak: per-output flit counts "
                f"say {self.flits_to_output} but queues hold {flits_per_output}"
            )
        return actual
