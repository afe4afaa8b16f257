"""Injection processes and runtime packet sources.

An :class:`InjectionProcess` describes *when* a flow creates packets; a
:class:`FlowSource` is the runtime object the simulator polls. Scheduled
sources pre-draw their arrival times with a seeded NumPy generator so runs
are reproducible and the per-event cost is O(1); saturating sources instead
keep their input buffer topped up, modelling a source with infinite demand
(used for the congestion regions of Fig. 4).
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TrafficError
from ..switch.flit import Packet
from ..types import FlowId

#: A packet length: fixed, or an inclusive (min, max) range sampled uniformly.
PacketLength = Union[int, Tuple[int, int]]


def _validate_length(length: PacketLength) -> None:
    if isinstance(length, int):
        if length <= 0:
            raise TrafficError(f"packet length must be positive, got {length}")
        return
    lo, hi = length
    if lo <= 0 or hi < lo:
        raise TrafficError(f"packet length range must satisfy 0 < min <= max, got {length}")


def _mean_length(length: PacketLength) -> float:
    if isinstance(length, int):
        return float(length)
    return (length[0] + length[1]) / 2.0


class InjectionProcess(abc.ABC):
    """When a flow creates packets (open-loop unless saturating)."""

    @abc.abstractmethod
    def arrival_times(
        self, horizon: int, packet_length: PacketLength, rng: np.random.Generator
    ) -> np.ndarray:
        """Sorted integer creation cycles within ``[0, horizon)``."""

    @property
    def saturating(self) -> bool:
        """True when the source always has another packet to offer."""
        return False


class BernoulliInjection(InjectionProcess):
    """Independent per-cycle packet creation at a target flit rate.

    Args:
        rate_flits: offered load in flits per cycle, in (0, 1]. The
            per-cycle packet probability is ``rate_flits / mean_length``.
    """

    def __init__(self, rate_flits: float) -> None:
        if not 0.0 < rate_flits <= 1.0:
            raise TrafficError(f"rate_flits must be in (0, 1], got {rate_flits}")
        self.rate_flits = rate_flits

    def arrival_times(
        self, horizon: int, packet_length: PacketLength, rng: np.random.Generator
    ) -> np.ndarray:
        _validate_length(packet_length)
        p = min(self.rate_flits / _mean_length(packet_length), 1.0)
        if p <= 0.0 or horizon <= 0:
            return np.empty(0, dtype=np.int64)
        # Geometric inter-arrivals are equivalent to per-cycle Bernoulli
        # trials but cost O(packets) instead of O(cycles).
        expected = int(horizon * p * 1.2) + 16
        gaps = rng.geometric(p, size=expected)
        times = np.cumsum(gaps) - 1
        while times.size and times[-1] < horizon:
            more = rng.geometric(p, size=expected)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        return times[times < horizon].astype(np.int64)


class BurstyInjection(InjectionProcess):
    """Two-state on/off (Markov-modulated) injection.

    During an ON period the flow injects a burst of back-to-back packets;
    OFF periods are silent. Lengths are geometric with the given means, and
    the ON-state injection is scaled so the long-run average equals
    ``rate_flits``. This is the "bursty injection" regime of Section 4.3.

    Args:
        rate_flits: long-run average offered load in flits/cycle.
        burst_packets: mean packets per burst.
        on_rate_flits: injection rate while ON (defaults to 1.0 —
            back-to-back).
    """

    def __init__(
        self,
        rate_flits: float,
        burst_packets: float = 4.0,
        on_rate_flits: float = 1.0,
    ) -> None:
        if not 0.0 < rate_flits <= 1.0:
            raise TrafficError(f"rate_flits must be in (0, 1], got {rate_flits}")
        if burst_packets < 1.0:
            raise TrafficError(f"burst_packets must be >= 1, got {burst_packets}")
        if not 0.0 < on_rate_flits <= 1.0:
            raise TrafficError(f"on_rate_flits must be in (0, 1], got {on_rate_flits}")
        if rate_flits > on_rate_flits:
            raise TrafficError(
                f"average rate {rate_flits} cannot exceed ON rate {on_rate_flits}"
            )
        self.rate_flits = rate_flits
        self.burst_packets = burst_packets
        self.on_rate_flits = on_rate_flits

    def arrival_times(
        self, horizon: int, packet_length: PacketLength, rng: np.random.Generator
    ) -> np.ndarray:
        _validate_length(packet_length)
        mean_len = _mean_length(packet_length)
        on_gap = mean_len / self.on_rate_flits  # cycles between packets while ON
        mean_on = self.burst_packets * on_gap
        duty = self.rate_flits / self.on_rate_flits
        mean_off = mean_on * (1.0 - duty) / duty if duty < 1.0 else 0.0
        times = []
        t = float(rng.exponential(mean_off)) if mean_off > 0 else 0.0
        while t < horizon:
            packets = max(int(rng.geometric(1.0 / self.burst_packets)), 1)
            for _ in range(packets):
                if t >= horizon:
                    break
                times.append(int(t))
                t += on_gap
            if mean_off > 0:
                t += float(rng.exponential(mean_off))
        return np.asarray(sorted(times), dtype=np.int64)


class SaturatingInjection(InjectionProcess):
    """Infinite demand: the source always has the next packet ready."""

    def arrival_times(
        self, horizon: int, packet_length: PacketLength, rng: np.random.Generator
    ) -> np.ndarray:
        raise TrafficError(
            "saturating sources have no arrival schedule; the simulator tops "
            "up their buffers directly"
        )

    @property
    def saturating(self) -> bool:
        return True


class TraceInjection(InjectionProcess):
    """Explicit creation cycles, for replay and hand-built tests."""

    def __init__(self, times: Sequence[int]) -> None:
        if any(t < 0 for t in times):
            raise TrafficError(f"trace times must be >= 0, got {list(times)[:8]}...")
        self.times = np.asarray(sorted(times), dtype=np.int64)

    def arrival_times(
        self, horizon: int, packet_length: PacketLength, rng: np.random.Generator
    ) -> np.ndarray:
        return self.times[self.times < horizon]


class FlowSource:
    """Runtime packet factory for one flow.

    Args:
        flow: the flow identity.
        process: when packets are created.
        packet_length: fixed flits or an inclusive uniform range.
        horizon: simulation length in cycles (bounds schedule generation).
        rng: seeded generator (owned by the caller for reproducibility).
    """

    def __init__(
        self,
        flow: FlowId,
        process: InjectionProcess,
        packet_length: PacketLength,
        horizon: int,
        rng: np.random.Generator,
        id_source: Optional[Iterator[int]] = None,
    ) -> None:
        _validate_length(packet_length)
        self.flow = flow
        self.process = process
        self.packet_length = packet_length
        self._rng = rng
        self._ids = id_source
        #: sorted creation cycles in ``[0, horizon)``; empty when saturating.
        #: The kernels merge every source's schedule into one stream and
        #: draw its packets' ids and lengths themselves, so
        #: :meth:`peek_time` does not follow their progress.
        self.schedule: np.ndarray = (
            np.empty(0, dtype=np.int64)
            if process.saturating
            else process.arrival_times(horizon, packet_length, rng)
        )
        self._cursor = 0

    @property
    def saturating(self) -> bool:
        """True when the simulator should keep this flow's buffer full."""
        return self.process.saturating

    def draw_length(self) -> int:
        """This flow's next packet length: fixed, or one draw from its RNG."""
        if isinstance(self.packet_length, int):
            return self.packet_length
        lo, hi = self.packet_length
        return int(self._rng.integers(lo, hi + 1))

    def make_packet(self, created_cycle: int) -> Packet:
        """Create one packet stamped at ``created_cycle``.

        When the owning simulation supplied a per-run ``id_source``, the
        packet id comes from it (replayable event traces); otherwise the
        process-global fallback stream is used.
        """
        if self._ids is not None:
            return Packet(
                flow=self.flow,
                flits=self.draw_length(),
                created_cycle=created_cycle,
                packet_id=next(self._ids),
            )
        return Packet(flow=self.flow, flits=self.draw_length(), created_cycle=created_cycle)

    def skip_packet(self) -> None:
        """Consume one packet id without creating a packet.

        A saturating top-up always ends with one abandoned attempt that
        burns an id from the shared stream. For fixed packet lengths, where
        :meth:`draw_length` consumes no randomness, the kernels precheck
        capacity arithmetically and call this instead of building the
        packet and dropping it, so packet ids are the same either way.
        """
        if not isinstance(self.packet_length, int):
            raise TrafficError(
                f"skip_packet requires a fixed packet length, {self.flow} "
                f"draws lengths from {self.packet_length}"
            )
        if self._ids is not None:
            next(self._ids)

    # ------------------------------------------------- scheduled-source API

    def peek_time(self) -> Optional[int]:
        """Next scheduled creation cycle, or ``None`` (exhausted/saturating)."""
        if self._cursor < len(self.schedule):
            return int(self.schedule[self._cursor])
        return None

    def pop_scheduled(self) -> Packet:
        """Consume the next scheduled arrival and return its packet."""
        created = self.peek_time()
        if created is None:
            raise TrafficError(f"source for {self.flow} has no scheduled arrival")
        self._cursor += 1
        return self.make_packet(created)


def build_source(
    flow: FlowId,
    process: InjectionProcess,
    packet_length: PacketLength,
    horizon: int,
    seed: int,
) -> FlowSource:
    """Convenience constructor wiring a fresh seeded RNG to a source."""
    return FlowSource(flow, process, packet_length, horizon, np.random.default_rng(seed))
