"""Fixed-priority message-based QoS — the DAC'12 Swizzle Switch baseline.

The previous Swizzle Switch QoS design (Satpathy et al., DAC 2012) let each
input assign one of four priority *levels* to its messages; arbitration
always serves the highest level present (LRG within a level) and needs two
arbitration cycles. The paper (Section 2.2) lists its three shortcomings,
all reproduced here for the comparison benches:

1. inputs cannot control how much *bandwidth* each level receives;
2. fixed priority can starve lower levels outright;
3. arbitration takes two cycles instead of SSVC's one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ConfigError
from .base import OutputArbiter

#: Number of priority levels in the DAC'12 design.
NUM_LEVELS = 4


class FixedPriorityArbiter(OutputArbiter):
    """4-level fixed-priority arbitration with per-level LRG.

    Args:
        num_inputs: switch radix.
        input_levels: mapping from input port to its messages' priority
            level (0 = lowest, 3 = highest). Unmapped inputs send at
            level 0.
    """

    name = "fixed-priority-4level"
    #: The DAC'12 design "required two arbitration cycles".
    arbitration_cycles = 2

    def __init__(self, num_inputs: int, input_levels: Optional[Dict[int, int]] = None) -> None:
        super().__init__(num_inputs)
        self._levels: Dict[int, int] = {}
        for port, level in (input_levels or {}).items():
            self.set_level(port, level)

    def set_level(self, input_port: int, level: int) -> None:
        """Assign a priority level to an input's messages."""
        self._check_port(input_port)
        if not 0 <= level < NUM_LEVELS:
            raise ConfigError(f"level must be in [0, {NUM_LEVELS}), got {level}")
        self._levels[input_port] = level

    def level_of(self, input_port: int) -> int:
        """The priority level an input's messages carry (default 0)."""
        return self._levels.get(input_port, 0)

    def choose(self, requests: Sequence[Request], now: int) -> Request:
        return self._lowest(requests, lambda r: -self.level_of(r.input_port))

    def commit(self, winner: Request, now: int) -> None:
        self.lrg.grant(winner.input_port)
