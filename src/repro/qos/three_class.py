"""The full three-class arbitration stack (paper Section 3).

Priority order: **GL > GB > BE**.

* GL requests arbitrate in a dedicated lane: "in the presence of a GL
  request, all bitlines in GB class lanes will be discharged" (Fig. 3), so
  any eligible GL requester pre-empts every GB and BE requester; several
  simultaneous GL requesters are resolved by LRG. The
  :class:`~repro.qos.gl_policer.GLPolicer` withdraws this absolute priority
  from sources that exceed the small GL bandwidth reservation — their
  packets are demoted to the BE plane until the usage clock recovers.
* GB requests use SSVC (or any injected GB arbiter such as the fine-grained
  :class:`~repro.qos.virtual_clock_arbiter.VirtualClockArbiter`).
* BE requests use plain LRG and are served only when no GB or GL packet is
  present (paper Section 3.3).

A single :class:`~repro.core.lrg.LRGState` is shared by all three planes,
mirroring the hardware's one self-updating priority order per output.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import GLPolicerConfig, QoSConfig
from ..core.arbitration import Request
from ..core.lrg import LRGState
from ..errors import ArbitrationError
from ..types import TrafficClass
from .base import OutputArbiter
from .gl_policer import GLPolicer
from .ssvc_arbiter import SSVCArbiter


class ThreeClassArbiter(OutputArbiter):
    """BE/GB/GL arbitration for one output channel.

    Args:
        num_inputs: switch radix.
        qos: SSVC parameters for the GB plane (ignored when ``gb_arbiter``
            is supplied).
        gl_policer_config: GL reservation and burst window.
        gb_arbiter: optional pre-built GB-plane arbiter. It should share
            ``lrg`` if hardware-faithful tie-breaking across planes is
            desired; the factory default does.
        lrg: optional shared LRG state (created if omitted).
    """

    name = "three-class"

    def __init__(
        self,
        num_inputs: int,
        qos: Optional[QoSConfig] = None,
        gl_policer_config: Optional[GLPolicerConfig] = None,
        gb_arbiter: Optional[OutputArbiter] = None,
        lrg: Optional[LRGState] = None,
    ) -> None:
        super().__init__(num_inputs, lrg)
        if gb_arbiter is None:
            gb_arbiter = SSVCArbiter(num_inputs, qos=qos, lrg=self.lrg)
        self.gb_arbiter = gb_arbiter
        self.gl_policer = GLPolicer(
            gl_policer_config if gl_policer_config is not None else GLPolicerConfig()
        )

    # ---------------------------------------------------------- registration

    def register_flow(self, input_port: int, rate: float, packet_flits: int) -> float:
        """Admit a GB reservation; returns the flow's Vtick."""
        register = getattr(self.gb_arbiter, "register_flow", None)
        if register is None:
            raise ArbitrationError(
                f"GB arbiter {self.gb_arbiter.name!r} does not take reservations"
            )
        return register(input_port, rate, packet_flits)

    # --------------------------------------------------------- select/commit

    def choose(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        gl_requests = []
        gb_requests = []
        be_requests = []
        gb, gl = TrafficClass.GB, TrafficClass.GL
        for request in requests:
            traffic_class = request.traffic_class
            if traffic_class is gb:
                gb_requests.append(request)
            elif traffic_class is gl:
                gl_requests.append(request)
            else:
                be_requests.append(request)

        if gl_requests and self.gl_policer.eligible(now):
            return self._lrg_pick(gl_requests)
        for demoted in gl_requests:
            self.gl_policer.note_throttled(now, demoted.input_port)

        if gb_requests:
            # A subset of validated requests: skip the GB arbiter's prologue.
            return self.gb_arbiter.choose(gb_requests, now)

        # BE plane also absorbs policed-out GL requests (demotion penalty);
        # with no GB request these two planes hold every request.
        return self._lrg_pick(be_requests + gl_requests)

    # ----------------------------------------------------------- fault hooks

    def inject_counter_bitflip(self, input_port: int, bit: int, now: int) -> None:
        """Fault hook: flip a GB-plane auxVC counter bit (delegated)."""
        inject = getattr(self.gb_arbiter, "inject_counter_bitflip", None)
        if inject is None:
            raise ArbitrationError(
                f"GB arbiter {self.gb_arbiter.name!r} has no auxVC counter to flip"
            )
        inject(input_port, bit, now)

    def commit(self, winner: Request, now: int) -> None:
        if winner.traffic_class is TrafficClass.GL:
            self.lrg.grant(winner.input_port)
            # eligible() is False whenever reserved_rate is zero, so this
            # never charges a nonexistent reservation (demoted GL wins
            # arrive here via the BE plane with eligible() False).
            if self.gl_policer.eligible(now):
                self.gl_policer.on_transmit(winner.packet_flits, now)
            return
        if winner.traffic_class is TrafficClass.GB:
            self.gb_arbiter.commit(winner, now)
            return
        self.lrg.grant(winner.input_port)
