"""Weighted Fair Queuing via finish-time stamps (paper Section 2.2).

FQ/WFQ "emulate bit-by-bit round robin service. They compute finish times
for packets, which is the time that the packet would have been serviced had
the server been doing [bit-by-bit round robin]." Exact WFQ tracks a system
virtual time whose rate depends on the set of backlogged flows; we implement
the self-clocked approximation (SCFQ, Golestani 1994) in which the virtual
time is the finish tag of the packet currently in service — an O(N)
scheduler with the same qualitative behaviour, which is all the paper's
complexity argument relies on.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ConfigError
from .base import OutputArbiter


class WFQArbiter(OutputArbiter):
    """Self-clocked weighted fair queuing over inputs.

    Args:
        num_inputs: switch radix.
        weights: service weight per input (fraction-like, any positive
            scale); inputs absent from the mapping get weight 1.0.
    """

    name = "wfq"

    def __init__(self, num_inputs: int, weights: Optional[Dict[int, float]] = None) -> None:
        super().__init__(num_inputs)
        self._weights = {p: 1.0 for p in range(num_inputs)}
        for port, weight in (weights or {}).items():
            self.set_weight(port, weight)
        self._finish: Dict[int, float] = {p: 0.0 for p in range(num_inputs)}
        self._pending: Dict[int, float] = {}
        self._virtual_time = 0.0

    def set_weight(self, input_port: int, weight: float) -> None:
        """Assign a service weight to an input."""
        self._check_port(input_port)
        if weight <= 0:
            raise ConfigError(f"weight must be positive, got {weight}")
        self._weights[input_port] = weight

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Reservation adapter: the WFQ weight is the reserved rate itself."""
        self.set_weight(input_port, rate)
        return rate

    def _finish_tag(self, request: Request) -> float:
        """Finish stamp of the head packet (SCFQ).

        The stamp is computed once, when the packet first reaches the head
        of its queue (first select it participates in), and reused until
        the packet is served — re-stamping every cycle would let a heavy
        flow's always-smaller marginal tag starve everyone else.
        """
        port = request.input_port
        pending = self._pending.get(port)
        if pending is not None:
            return pending
        start = max(self._finish[port], self._virtual_time)
        tag = start + request.packet_flits / self._weights[port]
        self._pending[port] = tag
        return tag

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        return self._lowest(requests, self._finish_tag)

    def commit(self, winner: Request, now: int) -> None:
        tag = self._finish_tag(winner)
        self._pending.pop(winner.input_port, None)
        self._finish[winner.input_port] = tag
        self._virtual_time = tag  # self-clocking: system time follows service
        self.lrg.grant(winner.input_port)
