"""Value types exchanged between the simulator and arbiters.

A :class:`Request` is what an input port presents to an output channel's
arbiter in one arbitration cycle; a :class:`Grant` records the outcome. Both
are deliberately free of simulator internals so the arbiters in
:mod:`repro.qos` can be unit-tested with hand-built requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..types import TrafficClass


class _RequestFields(NamedTuple):
    """The fields of :class:`Request`, which validates them."""

    input_port: int
    traffic_class: TrafficClass
    packet_flits: int
    queued_flits: int = 0
    arrival_cycle: int = 0


class Request(_RequestFields):
    """One input's head-of-line candidate for a given output.

    Attributes:
        input_port: index of the requesting input.
        traffic_class: class of the head packet (selects the arbitration
            plane: GL beats GB beats BE).
        packet_flits: length of the head packet in flits (the winner holds
            the channel this many cycles).
        queued_flits: total flits the input currently has buffered for this
            output and class; informational, used by work-conserving
            baselines such as DWRR.
        arrival_cycle: cycle the head packet reached the head of its queue;
            informational, used by arrival-stamping arbiters (original
            Virtual Clock semantics) and by tests.

    A tuple of these fields, built once per head and input stamp on the
    kernel's arbitration path; it hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        input_port: int,
        traffic_class: TrafficClass,
        packet_flits: int,
        queued_flits: int = 0,
        arrival_cycle: int = 0,
    ) -> "Request":
        if input_port < 0:
            raise ValueError(f"input_port must be >= 0, got {input_port}")
        if packet_flits <= 0:
            raise ValueError(f"packet_flits must be positive, got {packet_flits}")
        return tuple.__new__(
            cls, (input_port, traffic_class, packet_flits, queued_flits, arrival_cycle)
        )


@dataclass(frozen=True)
class Grant:
    """Outcome of one arbitration: which request won and when.

    Attributes:
        request: the winning request.
        cycle: cycle at which arbitration completed.
        via_gl_lane: True when the grant was decided in the dedicated GL
            lane (Fig. 3), i.e. the winner pre-empted all GB/BE requesters.
    """

    request: Request
    cycle: int
    via_gl_lane: bool = False

    @property
    def input_port(self) -> int:
        """Convenience accessor for the winning input index."""
        return self.request.input_port

