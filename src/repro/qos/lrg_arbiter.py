"""Least-recently-granted arbitration — the Swizzle Switch default.

This is the "No QoS" baseline of Fig. 4a: all requests are treated equally,
so during congestion every input converges to an equal share of the output
bandwidth regardless of how much it actually needs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.arbitration import Request
from ..core.lrg import LRGState
from .base import OutputArbiter


class LRGArbiter(OutputArbiter):
    """Pure LRG arbitration over all requests, class-blind.

    Args:
        num_inputs: switch radix.
        lrg: optional shared LRG state (the three-class arbiter passes its
            own so BE traffic shares the hardware's priority order).
    """

    name = "lrg"

    def __init__(self, num_inputs: int, lrg: Optional[LRGState] = None) -> None:
        super().__init__(num_inputs, lrg)

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        return self._lrg_pick(requests)

    def commit(self, winner: Request, now: int) -> None:
        self.lrg.grant(winner.input_port)
