"""Frame-based injection control in the spirit of GSF (paper Section 2.2).

Globally Synchronized Frames (Lee et al., ISCA 2008) bounds each source's
injection per global *frame*; the real system needs "a global barrier
network across all nodes, which adds overhead and can be slow". In a
single-stage switch the barrier is trivially the shared cycle counter, so
this baseline captures GSF's scheduling behaviour without modelling barrier
latency: within each frame of ``frame_cycles`` cycles every input may win at
most ``budget_i`` packets; budget-exhausted inputs only compete when no
budgeted input requests (best-effort leftover service).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ConfigError
from .base import OutputArbiter


class GSFArbiter(OutputArbiter):
    """Per-frame packet budgets with LRG arbitration inside a frame.

    Args:
        num_inputs: switch radix.
        budgets: packets each input may send per frame; inputs absent from
            the mapping get ``default_budget``.
        frame_cycles: frame length in cycles.
        default_budget: fallback per-frame budget.
    """

    name = "gsf"

    def __init__(
        self,
        num_inputs: int,
        budgets: Optional[Dict[int, int]] = None,
        frame_cycles: int = 512,
        default_budget: int = 4,
    ) -> None:
        super().__init__(num_inputs)
        if frame_cycles < 1:
            raise ConfigError(f"frame_cycles must be >= 1, got {frame_cycles}")
        if default_budget < 1:
            raise ConfigError(f"default_budget must be >= 1, got {default_budget}")
        self.frame_cycles = frame_cycles
        self._budgets = {p: default_budget for p in range(num_inputs)}
        for port, budget in (budgets or {}).items():
            self.set_budget(port, budget)
        self._remaining: Dict[int, int] = dict(self._budgets)
        self._frame = 0

    def set_budget(self, input_port: int, budget: int) -> None:
        """Assign a per-frame packet budget to an input."""
        self._check_port(input_port)
        if budget < 1:
            raise ConfigError(f"budget must be >= 1, got {budget}")
        self._budgets[input_port] = budget

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Reservation adapter: per-frame budget matching the reserved rate."""
        self._check_rate(rate)
        budget = max(1, round(rate * self.frame_cycles / max(packet_flits, 1)))
        self.set_budget(input_port, budget)
        return budget / self.frame_cycles

    def _sync_frame(self, now: int) -> None:
        frame = now // self.frame_cycles
        if frame != self._frame:
            self._frame = frame
            self._remaining = dict(self._budgets)

    def remaining_budget(self, input_port: int, now: int) -> int:
        """Packets the input may still win in the current frame."""
        self._sync_frame(now)
        return self._remaining.get(input_port, 0)

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        self._sync_frame(now)
        budgeted = [r for r in requests if self._remaining.get(r.input_port, 0) > 0]
        return self._lrg_pick(budgeted or requests)

    def commit(self, winner: Request, now: int) -> None:
        self._sync_frame(now)
        port = winner.input_port
        if self._remaining.get(port, 0) > 0:
            self._remaining[port] -= 1
        self.lrg.grant(port)
