"""Weighted Round Robin (WRR) arbitration.

A static scheduler: each flow owns ``weight_i`` packet credits per round,
served in a fixed circular order. WRR "can provide strict bandwidth
guarantees" but "leads to network underutilization as [it does] not
distribute leftover bandwidth equally to flows with excess data or to
best-effort flows" (paper Section 2.2). Two variants are exposed:

* work-conserving (default): an empty flow's turn is skipped immediately;
* strict (``work_conserving=False``): an empty flow's slot is *wasted* for
  one arbitration opportunity, which is what the underutilization ablation
  bench demonstrates.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ConfigError
from .base import OutputArbiter


class WRRArbiter(OutputArbiter):
    """Classic WRR over inputs with integer packet weights.

    Args:
        num_inputs: switch radix.
        weights: packets each input may send per round; inputs absent from
            the mapping get weight 1.
        work_conserving: skip (True) or waste (False) empty flows' credits.
    """

    name = "wrr"

    def __init__(
        self,
        num_inputs: int,
        weights: Optional[Dict[int, int]] = None,
        work_conserving: bool = True,
    ) -> None:
        super().__init__(num_inputs)
        self.work_conserving = work_conserving
        self._weights = {p: 1 for p in range(num_inputs)}
        for port, weight in (weights or {}).items():
            self.set_weight(port, weight)
        self._credits: Dict[int, int] = dict(self._weights)
        self._cursor = 0
        self.wasted_slots = 0

    def set_weight(self, input_port: int, weight: int) -> None:
        """Assign a per-round packet weight to an input."""
        self._check_port(input_port)
        if weight < 1:
            raise ConfigError(f"weight must be >= 1, got {weight}")
        self._weights[input_port] = weight

    #: packets per round granted to a 100%-reserved flow.
    WEIGHT_SCALE = 20

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Reservation adapter: weight proportional to the reserved rate.

        Returns the effective rate granularity (1 / WEIGHT_SCALE) so
        callers can reason about quantization, mirroring the Vtick return
        of the clock-based arbiters.
        """
        self._check_rate(rate)
        self.set_weight(input_port, max(1, round(rate * self.WEIGHT_SCALE)))
        return 1.0 / self.WEIGHT_SCALE

    def _refill(self) -> None:
        self._credits = dict(self._weights)
        self._cursor = 0

    def choose(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        by_port = {r.input_port: r for r in requests}
        if all(c <= 0 for c in self._credits.values()):
            self._refill()
        # Walk the circular order starting at the cursor; at most one full
        # round plus a refill is needed to find a credited requester.
        for attempt in range(2 * self.num_inputs + 1):
            port = self._cursor % self.num_inputs
            if self._credits.get(port, 0) > 0:
                if port in by_port:
                    return by_port[port]
                # Slot owner has nothing to send.
                if not self.work_conserving:
                    self._credits[port] -= 1
                    self.wasted_slots += 1
                    return None
                self._credits[port] = 0  # forfeit the rest of this turn
            self._cursor += 1
            if all(c <= 0 for c in self._credits.values()):
                self._refill()
        return None  # unreachable with valid state; defensive

    def commit(self, winner: Request, now: int) -> None:
        self._credits[winner.input_port] = self._credits.get(winner.input_port, 0) - 1
        if self._credits[winner.input_port] <= 0:
            self._cursor = winner.input_port + 1
