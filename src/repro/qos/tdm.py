"""Time-Division Multiplexing arbitration (paper Section 2.2).

"In a true TDM system, packets are serviced only in the time slots allocated
to the source. If the source has no packets to send, that time slot is
wasted and results in link underutilization." Virtual Clock exists precisely
to fix this, so the TDM arbiter is the reference point for the
underutilization ablation bench.

The slot table is built from reserved rates: a frame of ``frame_slots``
packet slots is divided proportionally, each slot spanning one packet
transmission opportunity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.arbitration import Request
from ..errors import ConfigError
from .base import OutputArbiter


def build_slot_table(rates: Dict[int, float], frame_slots: int) -> List[Optional[int]]:
    """Spread each input's slots evenly across a frame.

    Args:
        rates: reserved rate per input (fractions of the channel); the sum
            must not exceed 1.
        frame_slots: number of packet slots in one frame.

    Returns:
        A list of length ``frame_slots``; entry ``k`` is the input owning
        slot ``k`` or ``None`` for an unreserved slot.
    """
    if frame_slots < 1:
        raise ConfigError(f"frame_slots must be >= 1, got {frame_slots}")
    total = sum(rates.values())
    if total > 1.0 + 1e-9:
        raise ConfigError(f"reserved rates sum to {total:.4f} > 1.0")
    if any(r <= 0 for r in rates.values()):
        raise ConfigError("all reserved rates must be positive")
    table: List[Optional[int]] = [None] * frame_slots
    # Largest-rate-first placement at evenly spaced offsets minimizes jitter.
    for port in sorted(rates, key=lambda p: -rates[p]):
        count = round(rates[port] * frame_slots)
        if count == 0 and rates[port] > 0:
            count = 1
        placed = 0
        stride = frame_slots / max(count, 1)
        k = 0
        while placed < count and k < 4 * frame_slots:
            slot = int(k * stride) % frame_slots
            probe = 0
            while table[(slot + probe) % frame_slots] is not None and probe < frame_slots:
                probe += 1
            idx = (slot + probe) % frame_slots
            if table[idx] is None:
                table[idx] = port
                placed += 1
            k += 1
        if placed < count:
            raise ConfigError("slot table overflow: rates leave no room for placement")
    return table


class TDMArbiter(OutputArbiter):
    """Static slot-table arbitration; unowned/idle slots are wasted.

    Args:
        num_inputs: switch radix.
        rates: reserved rate per input.
        frame_slots: slots per frame (defaults to ``4 * num_inputs`` for
            reasonable rate resolution).
        slot_cycles: cycles per slot — normally the packet length so one
            slot carries one packet.
    """

    name = "tdm"

    def __init__(
        self,
        num_inputs: int,
        rates: Optional[Dict[int, float]] = None,
        frame_slots: Optional[int] = None,
        slot_cycles: int = 9,
    ) -> None:
        super().__init__(num_inputs)
        if slot_cycles < 1:
            raise ConfigError(f"slot_cycles must be >= 1, got {slot_cycles}")
        self.slot_cycles = slot_cycles
        self.frame_slots = frame_slots or 4 * num_inputs
        self._rates: Dict[int, float] = dict(rates or {})
        self.table = build_slot_table(self._rates, self.frame_slots)
        self.wasted_slots = 0

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Reservation adapter: rebuild the slot table with the new rate."""
        self._check_port(input_port)
        self._rates[input_port] = rate
        self.table = build_slot_table(self._rates, self.frame_slots)
        return 1.0 / self.frame_slots

    def slot_owner(self, now: int) -> Optional[int]:
        """The input owning the slot active at cycle ``now``."""
        return self.table[(now // self.slot_cycles) % len(self.table)]

    def choose(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        owner = self.slot_owner(now)
        for request in requests:
            if request.input_port == owner:
                return request
        # Unowned slot or idle owner: the slot is wasted, nobody else may use it.
        self.wasted_slots += 1
        return None

    def commit(self, winner: Request, now: int) -> None:
        """TDM keeps no per-grant state; the table is static."""
