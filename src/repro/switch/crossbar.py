"""The Swizzle Switch crossbar: ports, channels, and per-output arbiters.

A single-crossbar network gives every core dedicated input and output
channels (paper Section 2.1); QoS state lives at the crosspoints, i.e. per
(input, output) pair, which behaviorally means one arbiter instance and one
bandwidth allocator per output.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..config import SwitchConfig
from ..core.bandwidth import BandwidthAllocator, Reservation
from ..errors import ConfigError, SimulationError
from ..qos.base import OutputArbiter
from ..qos.three_class import ThreeClassArbiter
from .buffers import InputPort
from .output_channel import OutputChannel

#: Builds the arbiter for one output port.
ArbiterFactory = Callable[[int, SwitchConfig], OutputArbiter]


def default_arbiter_factory(output: int, config: SwitchConfig) -> OutputArbiter:
    """The paper's full three-class (BE/GB/GL) SSVC arbitration."""
    return ThreeClassArbiter(
        num_inputs=config.radix,
        qos=config.qos,
        gl_policer_config=config.gl_policer,
    )


class SwizzleSwitch:
    """One radix-N single-stage crossbar with per-output QoS arbitration.

    Args:
        config: hardware parameters.
        arbiter_factory: builds each output's arbiter; defaults to the
            paper's three-class stack. Experiments inject LRG-only (the
            "No QoS" baseline), pure SSVC, original Virtual Clock, or any
            of the Section 2.2 baselines here.
    """

    def __init__(
        self,
        config: SwitchConfig,
        arbiter_factory: Optional[ArbiterFactory] = None,
    ) -> None:
        self.config = config
        factory = arbiter_factory if arbiter_factory is not None else default_arbiter_factory
        #: packets buffered per output over every input, kept by the ports'
        #: two mutation paths: a zero entry lets the kernel skip the output
        #: without visiting any input.
        self.demand: List[int] = [0] * config.radix
        self.inputs: List[InputPort] = [
            InputPort(i, config, self.demand) for i in range(config.radix)
        ]
        self.outputs: List[OutputChannel] = [
            OutputChannel(o, config.arbitration_cycles) for o in range(config.radix)
        ]
        self.arbiters: List[OutputArbiter] = [
            factory(o, config) for o in range(config.radix)
        ]
        self.allocators: List[BandwidthAllocator] = [
            BandwidthAllocator(config.radix, config.gl_policer.reserved_rate)
            for _ in range(config.radix)
        ]

    # ------------------------------------------------------------ QoS wiring

    def reserve_gb(self, src: int, dst: int, rate: float, packet_flits: int) -> Reservation:
        """Admit a GB reservation and program the output's arbiter.

        The reservation is always recorded in the output's bandwidth
        allocator (admission control); if the arbiter understands
        reservations (SSVC, Virtual Clock, three-class, WRR/DWRR/WFQ
        adapters) its flow table is programmed too. Class-blind arbiters
        such as plain LRG simply ignore the rates — that is precisely the
        "No QoS" behaviour of Fig. 4a.
        """
        if not 0 <= dst < self.config.radix:
            raise SimulationError(f"output {dst} out of range [0, {self.config.radix})")
        reservation = self.allocators[dst].reserve(src, rate, packet_flits)
        arbiter = self.arbiters[dst]
        register = getattr(arbiter, "register_gb_flow", None) or getattr(
            arbiter, "register_flow", None
        )
        if register is not None:
            register(src, rate, packet_flits)
        return reservation

    def set_priority_level(self, src: int, level: int) -> None:
        """Program a message priority level on every output's arbiter.

        Only meaningful for the DAC'12 fixed-priority baseline; raises for
        arbiters without levels so misconfigured experiments fail loudly.
        """
        applied = False
        for arbiter in self.arbiters:
            set_level = getattr(arbiter, "set_level", None)
            if set_level is not None:
                set_level(src, level)
                applied = True
        if not applied:
            raise ConfigError(
                "no output arbiter supports priority levels "
                "(did you mean the fixed-priority baseline?)"
            )

    # --------------------------------------------------------------- queries

    def arbitration_cycles_for(self, output: int) -> int:
        """Effective re-arbitration latency at one output.

        The arbiter's own requirement (e.g. 2 cycles for the DAC'12
        baseline) overrides the switch default.
        """
        override = self.arbiters[output].arbitration_cycles
        return override if override is not None else self.config.arbitration_cycles

    def audit_occupancy(self) -> int:
        """Audit every input's books, then the switch-wide ``demand``.

        Returns the flits buffered across the switch.

        Raises:
            BufferError_: if a queue's own accounting drifted.
            SimulationError: if a port's counts, or ``demand``, disagree
                with the queued packets.
        """
        total = sum(port.audit_occupancy() for port in self.inputs)
        per_output = [sum(counts) for counts in zip(*(p.to_output for p in self.inputs))]
        if per_output != self.demand:
            raise SimulationError(
                f"switch occupancy leak: demand says {self.demand} but the "
                f"inputs hold {per_output} packets per output"
            )
        return total

    @property
    def radix(self) -> int:
        """Number of input/output ports."""
        return self.config.radix
