"""Per-flow and per-output statistics collection.

The simulator feeds this collector on every packet creation and delivery.
A warmup horizon discards transient samples: deliveries granted before
``warmup_cycles`` contribute to neither throughput nor latency, matching
standard NoC measurement methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..errors import SimulationError
from ..types import FlowId, TrafficClass
from .latency import LatencyStats
from .throughput import ThroughputWindow

if TYPE_CHECKING:  # the switch package imports this module
    from ..switch.flit import Packet


@dataclass
class FlowStats:
    """Everything measured for one flow.

    Attributes:
        flow: the flow identity.
        offered_packets/offered_flits: creations inside the measurement
            window (offered load).
        delivered_packets/delivered_flits: deliveries whose grant fell
            inside the measurement window.
        latency: creation-to-delivery statistics.
        waiting: injection-to-grant statistics (Eq. 1's quantity).
        windowed: per-window delivered-flit series.
    """

    flow: FlowId
    offered_packets: int = 0
    offered_flits: int = 0
    delivered_packets: int = 0
    delivered_flits: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    waiting: LatencyStats = field(default_factory=LatencyStats)
    windowed: ThroughputWindow = field(default_factory=ThroughputWindow)

    def accepted_rate(self, measured_cycles: int) -> float:
        """Delivered flits per cycle over the measurement window."""
        if measured_cycles <= 0:
            raise SimulationError(f"measured_cycles must be positive, got {measured_cycles}")
        return self.delivered_flits / measured_cycles

    def offered_rate(self, measured_cycles: int) -> float:
        """Created flits per cycle over the measurement window."""
        if measured_cycles <= 0:
            raise SimulationError(f"measured_cycles must be positive, got {measured_cycles}")
        return self.offered_flits / measured_cycles


class StatsCollector:
    """Collects flow and output statistics for one simulation run.

    Args:
        warmup_cycles: samples at cycles below this are discarded.
        window_cycles: width of the windowed-throughput buckets.
    """

    def __init__(self, warmup_cycles: int = 0, window_cycles: int = 1024) -> None:
        if warmup_cycles < 0:
            raise SimulationError(f"warmup_cycles must be >= 0, got {warmup_cycles}")
        self.warmup_cycles = warmup_cycles
        self.window_cycles = window_cycles
        self._flows: Dict[FlowId, FlowStats] = {}
        self.total_delivered_flits = 0
        self.horizon: Optional[int] = None

    def _stats(self, flow: FlowId) -> FlowStats:
        stats = self._flows.get(flow)
        if stats is None:
            stats = FlowStats(flow=flow, windowed=ThroughputWindow(self.window_cycles))
            self._flows[flow] = stats
        return stats

    # -------------------------------------------------------------- feeding

    def on_created(self, flow: FlowId, created_cycle: int, flits: int) -> None:
        """Record one creation of a ``flits``-flit packet (offered load).

        Takes the packet's fields rather than a :class:`Packet`, so a
        kernel records an arrival that waits at its source before any
        packet exists for it.
        """
        if created_cycle < self.warmup_cycles:
            return
        stats = self._flows.get(flow)
        if stats is None:
            stats = self._stats(flow)
        stats.offered_packets += 1
        stats.offered_flits += flits

    def add_offered(self, flow: FlowId, packets: int, flits: int) -> None:
        """Record ``packets`` creations of ``flits`` flits in all at once.

        The caller counts only creations inside the measurement window;
        a kernel that knows a flow's whole schedule adds it in one call.
        """
        stats = self._stats(flow)
        stats.offered_packets += packets
        stats.offered_flits += flits

    def on_delivered(self, packet: Packet) -> None:
        """Record a delivery; filtered by the warmup horizon.

        Latency is creation to delivery and waiting is injection (creation,
        if never injected) to grant, as :attr:`Packet.latency` and
        :attr:`Packet.waiting_time` define them; both are computed here from
        the timestamps.
        """
        granted = packet.grant_cycle
        delivered = packet.delivered_cycle
        if granted is None or delivered is None:
            raise SimulationError(f"packet {packet.packet_id} delivered without timestamps")
        if granted < self.warmup_cycles:
            return
        stats = self._flows.get(packet.flow)
        if stats is None:
            stats = self._stats(packet.flow)
        flits = packet.flits
        created = packet.created_cycle
        injected = packet.injected_cycle
        stats.delivered_packets += 1
        stats.delivered_flits += flits
        stats.latency.add(delivered - created)
        stats.waiting.add(granted - (created if injected is None else injected))
        stats.windowed.add(delivered, flits)
        self.total_delivered_flits += flits

    def finish(self, horizon: int) -> None:
        """Freeze the run length for rate computations."""
        if horizon <= self.warmup_cycles:
            raise SimulationError(
                f"horizon {horizon} must exceed warmup {self.warmup_cycles}"
            )
        self.horizon = horizon

    # ---------------------------------------------------------------- views

    @property
    def measured_cycles(self) -> int:
        """Cycles inside the measurement window.

        Raises:
            SimulationError: before :meth:`finish` was called.
        """
        if self.horizon is None:
            raise SimulationError("collector not finished; call finish(horizon)")
        return self.horizon - self.warmup_cycles

    def flow_stats(self, flow: FlowId) -> FlowStats:
        """Stats for one flow (zeroed if it never created a packet)."""
        return self._stats(flow)

    @property
    def flows(self) -> Dict[FlowId, FlowStats]:
        """All per-flow stats keyed by flow."""
        return dict(self._flows)

    def accepted_rate(self, flow: FlowId) -> float:
        """Flow's delivered flits/cycle over the measurement window."""
        return self._stats(flow).accepted_rate(self.measured_cycles)

    def output_throughput(self, output: int) -> float:
        """Total delivered flits/cycle at one output."""
        total = sum(
            s.delivered_flits for f, s in self._flows.items() if f.dst == output
        )
        return total / self.measured_cycles

    def class_throughput(self, traffic_class: TrafficClass) -> float:
        """Total delivered flits/cycle for one traffic class."""
        total = sum(
            s.delivered_flits
            for f, s in self._flows.items()
            if f.traffic_class is traffic_class
        )
        return total / self.measured_cycles
