"""Policing of the Guaranteed Latency class (paper Section 3.4).

"The bandwidth usage of the GL class is tracked by a counter similar to the
auxVC counters of the GB class and increments by a tick count proportional
to the reserved rate." The GL class has absolute priority, so without
policing a misbehaving source could deny service to the GB class entirely;
the paper therefore reserves only a small bandwidth fraction for GL and
keeps "safeguards in place to prevent its abuse".

We realise the safeguard as a leaky-bucket-style usage clock: each GL packet
transmission advances the shared GL clock by ``packet_flits /
reserved_rate`` cycles (one virtual tick at the reserved rate). While the
clock runs ahead of real time by more than ``burst_window`` cycles the GL
class has exhausted its reservation and *loses its absolute priority*; its
packets are then demoted to best-effort arbitration until the clock catches
back down. The policing ablation in ``repro-exp gl-bound`` shows what the
safeguard buys: with policing disabled, a saturating GL source starves the
GB class (one of that artifact's claims).
"""

from __future__ import annotations

from typing import Optional

from ..config import GLPolicerConfig
from ..errors import ConfigError


class GLPolicer:
    """Shared GL usage clock for one output channel.

    Args:
        config: reservation fraction and burst window. A ``reserved_rate``
            of 0 means GL traffic is never granted absolute priority,
            regardless of the burst window — there is no reservation to
            charge a transmission against. With a positive rate, a
            ``burst_window`` of ``None`` disables policing (GL is always
            eligible).

    :meth:`eligible` is pure so arbiters may consult it during selection;
    throttling statistics are recorded explicitly via :meth:`note_throttled`.
    """

    def __init__(self, config: GLPolicerConfig) -> None:
        self.config = config
        self._clock = 0.0
        #: number of (cycle, input) denial decisions where GL priority was
        #: withheld from a pending request
        self.throttle_events = 0
        self._throttle_cycle: Optional[int] = None
        self._throttled_inputs: set = set()

    @property
    def usage_clock(self) -> float:
        """Current GL usage clock value in cycles (absolute)."""
        return self._clock

    def lead(self, now: int) -> float:
        """How far GL usage runs ahead of its reservation, in cycles."""
        return max(self._clock - now, 0.0)

    def eligible(self, now: int) -> bool:
        """May GL traffic claim absolute priority at cycle ``now``? (pure)

        The zero-rate check takes precedence over the disabled burst
        window: with no reservation there is nothing to charge
        :meth:`on_transmit` against, so GL must never win the GL plane
        (it is demoted to best-effort instead).
        """
        if self.config.reserved_rate <= 0.0:
            return False
        if self.config.burst_window is None:
            return True
        return self.lead(now) <= self.config.burst_window

    def note_throttled(
        self, now: Optional[int] = None, input_port: Optional[int] = None
    ) -> None:
        """Record that a pending GL request was denied absolute priority.

        One output denies a given input at most once per cycle, so passing
        ``now`` deduplicates on ``(now, input_port)``: the kernel (which
        sees GL heads it filtered out before building requests) and
        :meth:`ThreeClassArbiter.select` (which sees demoted GL requests
        that rode along) can both report the same denial without double
        counting, while two *distinct* GL inputs denied in the same cycle
        count as two events. Calling without ``now`` always counts
        (unit-test convenience); ``input_port=None`` with ``now`` set is a
        single anonymous denial per cycle.
        """
        if now is not None:
            if now != self._throttle_cycle:
                self._throttle_cycle = now
                self._throttled_inputs.clear()
            if input_port in self._throttled_inputs:
                return
            self._throttled_inputs.add(input_port)
        self.throttle_events += 1

    def on_transmit(self, packet_flits: int, now: int) -> None:
        """Charge one GL packet against the reservation.

        Raises:
            ConfigError: if called while the reserved rate is zero — the
                caller should have demoted the packet instead.
        """
        if packet_flits <= 0:
            raise ConfigError(f"packet_flits must be positive, got {packet_flits}")
        if self.config.reserved_rate <= 0.0:
            raise ConfigError("GL transmission charged while GL reservation is zero")
        self._clock = max(self._clock, float(now)) + packet_flits / self.config.reserved_rate
