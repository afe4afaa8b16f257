"""Credit-Controlled Static Priority (Akesson et al., RTCSA 2008).

The paper's Section 5 cites CCSP as the other way to decouple latency from
allocated rate: instead of SSVC's coarse clocks + LRG, CCSP gives each flow
a *static* priority and polices it with a (rate, burstiness) credit bucket —
a flow may only use its priority while it has credit, so a high-priority
flow cannot take more long-run bandwidth than it reserved, yet its latency
is set by its priority rather than its rate.

Semantics implemented:

* each flow accrues ``rate`` flit-credits per cycle up to ``burst_flits``;
* a flow is *eligible* when its credit covers its head packet;
* among eligible flows the highest static priority wins (LRG breaks equal
  priorities); if no requester is eligible, the highest-priority requester
  is served anyway (work conservation — idle slots are not wasted) without
  letting its credit go below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ArbitrationError, ConfigError
from .base import OutputArbiter

#: Credits may go this many flits negative when a slot is served
#: work-conservingly; bounds how far a flow can borrow ahead.
CREDIT_FLOOR = -64.0


@dataclass
class _CCSPFlow:
    rate: float
    burst_flits: float
    priority: int
    credit: float = 0.0
    last_update: int = 0


class CCSPArbiter(OutputArbiter):
    """Static priorities with per-flow credit policing.

    Args:
        num_inputs: switch radix.
        default_burst_flits: credit cap for flows registered without an
            explicit burst allowance.
    """

    name = "ccsp"

    def __init__(self, num_inputs: int, default_burst_flits: float = 16.0) -> None:
        super().__init__(num_inputs)
        if default_burst_flits <= 0:
            raise ConfigError(
                f"default_burst_flits must be positive, got {default_burst_flits}"
            )
        self.default_burst_flits = default_burst_flits
        self._flows: Dict[int, _CCSPFlow] = {}

    # ---------------------------------------------------------- registration

    def register_flow(
        self,
        input_port: int,
        rate: float,
        packet_flits: int,
        priority: Optional[int] = None,
        burst_flits: Optional[float] = None,
    ) -> float:
        """Admit a flow; returns its credit rate (flits/cycle).

        Priority defaults to the registration order's inverse — later,
        lower — callers wanting explicit levels pass ``priority`` (higher
        value = higher priority).
        """
        self._check_port(input_port)
        self._check_rate(rate)
        burst = burst_flits if burst_flits is not None else self.default_burst_flits
        if burst < packet_flits:
            raise ConfigError(
                f"burst_flits ({burst}) must cover one packet ({packet_flits})"
            )
        if priority is None:
            priority = self.num_inputs - len(self._flows)
        self._flows[input_port] = _CCSPFlow(
            rate=rate, burst_flits=float(burst), priority=priority
        )
        return rate

    # -------------------------------------------------------------- credits

    def _sync(self, flow: _CCSPFlow, now: int) -> None:
        if now > flow.last_update:
            flow.credit = min(
                flow.credit + flow.rate * (now - flow.last_update),
                flow.burst_flits,
            )
            flow.last_update = now

    def credit_of(self, input_port: int, now: int) -> float:
        """Current credit of a flow, in flits."""
        flow = self._flow(input_port)
        self._sync(flow, now)
        return flow.credit

    def _flow(self, input_port: int) -> _CCSPFlow:
        try:
            return self._flows[input_port]
        except KeyError:
            raise ArbitrationError(
                f"input {input_port} has no CCSP registration"
            ) from None

    # --------------------------------------------------------- select/commit

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        eligible = []
        for request in requests:
            flow = self._flow(request.input_port)
            self._sync(flow, now)
            if flow.credit >= request.packet_flits:
                eligible.append(request)
        pool = eligible or requests  # work conserving
        return self._lowest(pool, lambda r: -self._flow(r.input_port).priority)

    def commit(self, winner: Request, now: int) -> None:
        flow = self._flow(winner.input_port)
        self._sync(flow, now)
        flow.credit = max(flow.credit - winner.packet_flits, CREDIT_FLOOR)
        self.lrg.grant(winner.input_port)
