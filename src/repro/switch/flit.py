"""Packets and flits.

The simulator is packet-granular with flit-accurate timing: a packet of
``flits`` flits holds its output channel for exactly ``flits`` data cycles,
so no per-flit objects are needed on the fast path. :class:`Flit` is still
provided for tests, traces, and examples that want to reason about
individual bus beats (:meth:`Packet.expand_flits`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..errors import SimulationError
from ..types import FlowId, TrafficClass

# Fallback id stream for packets constructed directly (tests, examples).
# Simulators do NOT use this: each run owns a fresh counter (see
# ``fresh_packet_ids``) so two runs with the same seed produce bit-identical
# event streams — process-global state would make packet ids depend on what
# ran earlier in the interpreter (tests/test_determinism_hash.py).
_packet_ids = itertools.count()


def fresh_packet_ids() -> "itertools.count[int]":
    """A per-run packet id counter starting at 0.

    Every simulator run must allocate its own stream and stamp packets
    explicitly; replayability of event traces depends on it.
    """
    return itertools.count()


def skip_packet_ids(ids: Iterator[int], count: int) -> None:
    """Consume ``count`` ids from a per-run stream without creating packets."""
    if count > 0:
        next(itertools.islice(ids, count - 1, None))


@dataclass
class Packet:
    """One network packet.

    Attributes:
        flow: the (source, destination, class) triple the packet belongs to.
        flits: packet length in flits.
        created_cycle: cycle the source generated the packet (latency is
            measured from here, so source queueing is included — the
            application-visible figure).
        injected_cycle: cycle the packet entered the input port buffer.
        grant_cycle: cycle its arbitration completed (None until granted).
        delivered_cycle: cycle its last flit left the output (None until
            delivered).
    """

    flow: FlowId
    flits: int
    created_cycle: int
    injected_cycle: Optional[int] = None
    grant_cycle: Optional[int] = None
    delivered_cycle: Optional[int] = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.flits <= 0:
            raise SimulationError(f"packet must have >= 1 flit, got {self.flits}")
        if self.created_cycle < 0:
            raise SimulationError(f"created_cycle must be >= 0, got {self.created_cycle}")

    # ------------------------------------------------------------ properties

    @property
    def src(self) -> int:
        """Source input port."""
        return self.flow.src

    @property
    def dst(self) -> int:
        """Destination output port."""
        return self.flow.dst

    @property
    def traffic_class(self) -> TrafficClass:
        """The packet's traffic class."""
        return self.flow.traffic_class

    @property
    def latency(self) -> int:
        """Creation-to-delivery latency in cycles.

        Raises:
            SimulationError: if the packet has not been delivered yet.
        """
        if self.delivered_cycle is None:
            raise SimulationError(f"packet {self.packet_id} not delivered yet")
        return self.delivered_cycle - self.created_cycle

    @property
    def waiting_time(self) -> int:
        """Injection-to-grant waiting time at the switch, in cycles.

        This is the quantity bounded by Eq. 1 for GL packets: time spent
        buffered at the input port before winning arbitration.
        """
        if self.grant_cycle is None:
            raise SimulationError(f"packet {self.packet_id} not granted yet")
        start = self.injected_cycle if self.injected_cycle is not None else self.created_cycle
        return self.grant_cycle - start

    def expand_flits(self) -> List["Flit"]:
        """Materialize the packet's flits (head/body/tail), for tracing."""
        return [
            Flit(
                packet_id=self.packet_id,
                flow=self.flow,
                index=i,
                is_head=(i == 0),
                is_tail=(i == self.flits - 1),
            )
            for i in range(self.flits)
        ]


@dataclass(frozen=True)
class Flit:
    """One bus beat of a packet (head, body, or tail).

    Attributes:
        packet_id: owning packet.
        flow: owning flow.
        index: position within the packet (0 = head).
        is_head: True for the first flit (carries routing/arbitration info).
        is_tail: True for the last flit (releases the channel).
    """

    packet_id: int
    flow: FlowId
    index: int
    is_head: bool
    is_tail: bool

    def __post_init__(self) -> None:
        if self.index < 0:
            raise SimulationError(f"flit index must be >= 0, got {self.index}")
