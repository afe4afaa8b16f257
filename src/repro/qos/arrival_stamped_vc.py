"""Arrival-stamped Virtual Clock — the original algorithm's semantics.

Zhang's algorithm stamps each packet *when it arrives*: the flow's clock
advances by one Vtick per arrival and the packet carries that stamp to the
scheduler. The paper's switch integration instead consults/updates counters
at transmit time (see :class:`repro.qos.virtual_clock_arbiter`). The two
differ under bursts: with arrival stamping, a queued burst owns consecutive
future stamps (the k-th packet is scheduled k Vticks out) even while the
channel idles; with transmit updates, only the head's position matters.

Stamps are computed lazily but *exactly*: packets of one flow reach the
head in arrival order, and each stamp depends only on the previous stamp
and the packet's own arrival time (``stamp = max(prev, arrival) + Vtick``),
so stamping a packet the first time it is seen at the head reproduces the
stamp it would have received at arrival.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.arbitration import Request
from ..core.lrg import LRGState
from ..core.virtual_clock import compute_vtick
from ..errors import ArbitrationError
from .base import OutputArbiter


class ArrivalStampedVCArbiter(OutputArbiter):
    """Virtual Clock with the original arrival-time stamping.

    Args:
        num_inputs: switch radix.
        lrg: optional shared LRG state for tie-breaking.
    """

    name = "virtual-clock-arrival"

    def __init__(self, num_inputs: int, lrg: Optional[LRGState] = None) -> None:
        super().__init__(num_inputs, lrg)
        self._vticks: Dict[int, float] = {}
        self._last_stamp: Dict[int, float] = {}
        #: (arrival_cycle, stamp) of the current head packet per input;
        #: invalidated on commit.
        self._head_stamp: Dict[int, Tuple[int, float]] = {}

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Admit a flow; returns its Vtick."""
        self._check_port(input_port)
        vtick = compute_vtick(rate, packet_flits)
        self._vticks[input_port] = vtick
        self._last_stamp[input_port] = 0.0
        return vtick

    def _stamp(self, request: Request) -> float:
        port = request.input_port
        if port not in self._vticks:
            raise ArbitrationError(f"input {port} has no reservation")
        cached = self._head_stamp.get(port)
        if cached is not None and cached[0] == request.arrival_cycle:
            return cached[1]
        stamp = max(self._last_stamp[port], float(request.arrival_cycle)) + self._vticks[port]
        self._head_stamp[port] = (request.arrival_cycle, stamp)
        return stamp

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        return self._lowest(requests, self._stamp)

    def commit(self, winner: Request, now: int) -> None:
        port = winner.input_port
        self._last_stamp[port] = self._stamp(winner)
        self._head_stamp.pop(port, None)
        self.lrg.grant(port)
