"""Shared enums and light value types used across the library."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TrafficClass(enum.IntEnum):
    """The three traffic classes of the paper, ordered by priority.

    Higher numeric value means higher arbitration priority:
    ``GL > GB > BE`` (paper Section 3).
    """

    BE = 0  #: Best-Effort — no guarantees, LRG arbitration.
    GB = 1  #: Guaranteed Bandwidth — Virtual Clock / SSVC arbitration.
    GL = 2  #: Guaranteed Latency — absolute priority, dedicated lane.

    @property
    def short_name(self) -> str:
        """Two-letter class mnemonic used in reports ("BE"/"GB"/"GL")."""
        return self.name


class CounterMode(enum.Enum):
    """Finite-counter management policies for SSVC (paper Sections 3.1).

    ``SUBTRACT``
        Keep a real-time counter with the granularity of the auxVC LSBs;
        when it saturates, drop every flow's most-significant value by one
        (all thermometer codes shift down one lane).
    ``HALVE``
        When any auxVC saturates, divide every auxVC by two (top half of
        the thermometer code is copied onto the bottom half, then cleared).
    ``RESET``
        When any auxVC saturates, clear every auxVC (and thermometer code)
        to zero.
    """

    SUBTRACT = "subtract"
    HALVE = "halve"
    RESET = "reset"

    @classmethod
    def from_name(cls, name: str) -> "CounterMode":
        """Parse a mode from its lowercase string name.

        Raises ``ValueError`` with the list of valid names on failure so CLI
        errors are self-explanatory.
        """
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown counter mode {name!r}; expected one of: {valid}") from None


class _FlowIdFields(NamedTuple):
    """The fields of :class:`FlowId`, which validates them."""

    src: int
    dst: int
    traffic_class: TrafficClass = TrafficClass.GB


class FlowId(_FlowIdFields):
    """Identity of a flow: a (source input, destination output, class) triple.

    The paper defines a flow as "a stream of packets that traverse the same
    route from a source to a destination"; in a single-stage switch the route
    is fully determined by the (input, output) pair, and the traffic class
    selects which arbitration plane the flow uses.

    A tuple of its three fields, because kernels hash a flow per packet and
    a tuple hashes in C. Its hash is ``hash((src, dst, traffic_class))``,
    the hash a frozen dataclass of the same fields has, so sets of flows
    iterate in the same order. It also equals the plain tuple of its
    fields: never key one dict by both.
    """

    __slots__ = ()

    def __new__(
        cls, src: int, dst: int, traffic_class: TrafficClass = TrafficClass.GB
    ) -> "FlowId":
        if src < 0 or dst < 0:
            raise ValueError(
                f"flow endpoints must be non-negative, got "
                f"{traffic_class.short_name}[{src}->{dst}]"
            )
        return tuple.__new__(cls, (src, dst, traffic_class))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.traffic_class.short_name}[{self.src}->{self.dst}]"


#: Convenience aliases used in signatures throughout the package.
Cycle = int
FlitCount = int
