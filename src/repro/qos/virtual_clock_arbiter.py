"""Original (fine-grained) Virtual Clock arbitration.

This is the "Original Virtual Clock" curve of Fig. 5: auxVC counters are
compared at full precision, so the schedule follows reserved rates exactly —
and couples latency to rate. A flow reserving rate ``r`` advances its clock
by ``Vtick = L/r`` per packet, so its packets wait on the order of ``1/r``
cycles between wins: low-rate flows see very high average latency.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..core.lrg import LRGState
from ..core.virtual_clock import VirtualClockCounter, compute_vtick
from ..errors import ArbitrationError
from .base import OutputArbiter


class VirtualClockArbiter(OutputArbiter):
    """Exact auxVC comparison with LRG tie-breaking.

    Every requesting input must hold a registered reservation; the
    three-class arbiter routes unreserved (BE) traffic elsewhere.

    Args:
        num_inputs: switch radix.
        lrg: optional shared LRG state for tie-breaking.
    """

    name = "virtual-clock"

    def __init__(self, num_inputs: int, lrg: Optional[LRGState] = None) -> None:
        super().__init__(num_inputs, lrg)
        self._clocks: Dict[int, VirtualClockCounter] = {}

    # ---------------------------------------------------------- registration

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Admit a flow and return its Vtick (cycles per packet)."""
        self._check_port(input_port)
        vtick = compute_vtick(rate, packet_flits)
        self._clocks[input_port] = VirtualClockCounter(vtick=vtick)
        return vtick

    def clock(self, input_port: int) -> VirtualClockCounter:
        """The flow's counter (mainly for tests and reports)."""
        try:
            return self._clocks[input_port]
        except KeyError:
            raise ArbitrationError(f"input {input_port} has no reservation") from None

    # --------------------------------------------------------- select/commit

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        return self._lowest(requests, lambda r: self.clock(r.input_port).effective(now))

    def commit(self, winner: Request, now: int) -> None:
        self.clock(winner.input_port).on_transmit(now)
        self.lrg.grant(winner.input_port)
