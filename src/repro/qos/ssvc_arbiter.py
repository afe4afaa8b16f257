"""SSVC arbitration — the paper's Guaranteed Bandwidth mechanism.

A thin :class:`~repro.qos.base.OutputArbiter` adapter over
:class:`repro.core.ssvc.SSVCCore`: coarse thermometer-level comparison with
LRG tie-breaking, and the SUBTRACT/HALVE/RESET counter-management policies
selected through :class:`repro.config.QoSConfig`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import QoSConfig
from ..core.arbitration import Request
from ..core.lrg import LRGState
from ..core.ssvc import SSVCCore
from .base import OutputArbiter


class SSVCArbiter(OutputArbiter):
    """Swizzle Switch Virtual Clock arbitration for one output.

    Args:
        num_inputs: switch radix.
        qos: quantization / counter-management parameters.
        lrg: optional shared LRG state used for tie-breaking (and shared
            with the BE plane in the three-class arbiter, mirroring the
            hardware's single per-output LRG order).
    """

    name = "ssvc"

    def __init__(
        self,
        num_inputs: int,
        qos: Optional[QoSConfig] = None,
        lrg: Optional[LRGState] = None,
    ) -> None:
        super().__init__(num_inputs, lrg)
        self.qos = qos if qos is not None else QoSConfig()
        self.core = SSVCCore(self.qos, num_inputs, lrg=self.lrg)
        self.name = f"ssvc-{self.qos.counter_mode.value}"

    # ---------------------------------------------------------- registration

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Admit a flow at this output; returns its Vtick."""
        return self.core.register_flow(input_port, rate, packet_flits)

    # --------------------------------------------------------- select/commit

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        ports = [r.input_port for r in requests]
        return requests[ports.index(self.core.select(ports, now))]

    def commit(self, winner: Request, now: int) -> None:
        self.core.commit(winner.input_port, now)

    # ----------------------------------------------------------- fault hooks

    def inject_counter_bitflip(self, input_port: int, bit: int, now: int) -> None:
        """Fault hook: flip one bit of this input's auxVC counter."""
        self.core.inject_counter_bitflip(input_port, bit, now)
