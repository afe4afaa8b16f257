"""A PVC-style baseline (Grot, Keckler & Mutlu, MICRO 2009).

Preemptive Virtual Clock is the multi-hop QoS scheme the paper cites as
related work ([7]): priorities derive from each flow's *bandwidth usage
relative to its reservation* within the current frame, and the frame resets
periodically so history cannot be banked (PVC additionally preempts
lower-priority packets in flight, which has no analogue in a single-stage
switch where arbitration happens before transmission begins).

The single-switch adaptation implemented here: each flow accumulates
``consumed_flits / reserved_rate`` — normalized usage in "cycles of
entitlement" — and the least-served-relative-to-reservation flow wins;
ties break by LRG; all usage counters clear every ``frame_cycles``. This is
deliberately close to SSVC's RESET mode, which is the point: the paper's
contribution is getting this class of behaviour into one arbitration cycle
of a high-radix crossbar.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..core.lrg import LRGState
from ..errors import ArbitrationError, ConfigError
from .base import OutputArbiter


class PreemptiveVCArbiter(OutputArbiter):
    """Frame-based normalized-usage arbitration (PVC-style).

    Args:
        num_inputs: switch radix.
        frame_cycles: usage-counter reset period.
        lrg: optional shared LRG state.
    """

    name = "preemptive-vc"

    def __init__(
        self,
        num_inputs: int,
        frame_cycles: int = 2048,
        lrg: Optional[LRGState] = None,
    ) -> None:
        super().__init__(num_inputs, lrg)
        if frame_cycles < 1:
            raise ConfigError(f"frame_cycles must be >= 1, got {frame_cycles}")
        self.frame_cycles = frame_cycles
        self._rates: Dict[int, float] = {}
        self._usage: Dict[int, float] = {}
        self._frame = 0
        self.frame_resets = 0

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Admit a flow; returns its per-flit usage increment (1/rate)."""
        self._check_port(input_port)
        self._check_rate(rate)
        self._rates[input_port] = rate
        self._usage[input_port] = 0.0
        return 1.0 / rate

    def usage_of(self, input_port: int, now: int) -> float:
        """Normalized usage of a flow in the current frame."""
        self._sync_frame(now)
        try:
            return self._usage[input_port]
        except KeyError:
            raise ArbitrationError(f"input {input_port} has no reservation") from None

    def _sync_frame(self, now: int) -> None:
        frame = now // self.frame_cycles
        if frame != self._frame:
            self._frame = frame
            for port in self._usage:
                self._usage[port] = 0.0
            self.frame_resets += 1

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        return self._lowest(requests, lambda r: self.usage_of(r.input_port, now))

    def commit(self, winner: Request, now: int) -> None:
        self._sync_frame(now)
        port = winner.input_port
        self._usage[port] += winner.packet_flits / self._rates[port]
        self.lrg.grant(port)
