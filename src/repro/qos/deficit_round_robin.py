"""Deficit Weighted Round Robin (DWRR) arbitration.

Shreedhar & Varghese's deficit round robin, weighted: each flow accumulates
``quantum_i`` flit credits when its turn comes around; its head packet is
served only if the accumulated deficit covers the packet length, so flows
with variable packet sizes still receive bandwidth proportional to their
quanta. Like WRR it provides strict guarantees but does not redistribute a
reserved-but-idle flow's share to eager flows within the round (paper
Section 2.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ConfigError
from .base import OutputArbiter


class DWRRArbiter(OutputArbiter):
    """Deficit round robin over inputs with flit quanta.

    Args:
        num_inputs: switch radix.
        quanta: flits credited to each input per round; inputs absent from
            the mapping receive ``default_quantum``.
        default_quantum: fallback per-round credit in flits.
    """

    name = "dwrr"

    def __init__(
        self,
        num_inputs: int,
        quanta: Optional[Dict[int, int]] = None,
        default_quantum: int = 8,
    ) -> None:
        super().__init__(num_inputs)
        if default_quantum < 1:
            raise ConfigError(f"default_quantum must be >= 1, got {default_quantum}")
        self._quanta = {p: default_quantum for p in range(num_inputs)}
        for port, quantum in (quanta or {}).items():
            self.set_quantum(port, quantum)
        self._deficit: Dict[int, int] = {p: 0 for p in range(num_inputs)}
        self._cursor = 0
        self._charged = False  # quantum already granted for this visit?

    def set_quantum(self, input_port: int, quantum: int) -> None:
        """Assign a per-round flit quantum to an input."""
        self._check_port(input_port)
        if quantum < 1:
            raise ConfigError(f"quantum must be >= 1, got {quantum}")
        self._quanta[input_port] = quantum

    #: flits per round granted to a 100%-reserved flow.
    QUANTUM_SCALE = 64

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Reservation adapter: quantum proportional to the reserved rate."""
        self._check_rate(rate)
        self.set_quantum(input_port, max(1, round(rate * self.QUANTUM_SCALE)))
        return 1.0 / self.QUANTUM_SCALE

    def deficit_of(self, input_port: int) -> int:
        """Current deficit counter of an input, in flits."""
        return self._deficit.get(input_port, 0)

    def choose(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        """Classic DRR visit: one quantum per visit, serve while deficit lasts.

        The cursor stays on a flow across consecutive arbitrations until its
        deficit can no longer cover its head packet, so a flow with a large
        quantum sends several packets back-to-back per round — this is what
        makes DRR's shares proportional to the quanta.
        """
        by_port = {r.input_port: r for r in requests}
        # Bounded walk: each flow is visited at most twice (the second pass
        # happens when every backlogged flow needed its quantum charge).
        for attempt in range(2 * self.num_inputs + 1):
            port = self._cursor % self.num_inputs
            request = by_port.get(port)
            if request is None:
                # An idle flow's deficit does not accumulate (DRR rule:
                # deficit of an empty queue resets), so its share is lost.
                self._deficit[port] = 0
                self._advance()
                continue
            if not self._charged:
                self._deficit[port] += self._quanta[port]
                self._charged = True
            if self._deficit[port] >= request.packet_flits:
                return request
            self._advance()
        return None  # no backlogged flow accumulated enough; defensive

    def commit(self, winner: Request, now: int) -> None:
        port = winner.input_port
        self._deficit[port] = max(self._deficit.get(port, 0) - winner.packet_flits, 0)
        # Stay on this flow; the next select keeps serving it while its
        # deficit covers its head packet.
        self._cursor = port

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % self.num_inputs
        self._charged = False
