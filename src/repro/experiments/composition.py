"""Section 4.4 extension — measuring why one switch beats a composition.

The paper stops at radix 64 because "composing multiple switches ...
makes the QoS technique more complex": crosspoints get shared by several
flows (aggregate, not per-flow, reservations) and input buffers lose flow
separation. This experiment quantifies both effects by running the *same*
set of end-to-end GB flows through

1. a single Swizzle Switch of radix = host count (per-flow crosspoints,
   per-output VOQs), and
2. the two-stage Clos composition of small switches
   (:mod:`repro.multiswitch`),

with one **victim** flow holding a reservation and one **aggressor** flow
that shares the victim's ingress aggregate (same source host, different
destination host in the same destination group) bursting as hard as it can.
In the single switch the two are distinct crosspoints, so the victim is
untouched; in the composition they share one auxVC counter and one egress
FIFO, so the aggressor eats into the victim's service and inflates its
latency — plus the shared downlink FIFO adds head-of-line blocking across
*unrelated* outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..errors import SimulationError
from ..metrics.report import format_table
from ..multiswitch.simulator import ComposedFlow, MultiStageSimulation
from ..multiswitch.storage import composed_storage_overhead
from ..multiswitch.topology import ClosTopology
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from ..traffic.flows import Workload, gb_flow
from ..types import FlowId, TrafficClass
from .claims import Claim, Report
from .common import run_simulation

#: Default shape: 4 groups x 4 hosts = 16 nodes either way.
DEFAULT_TOPOLOGY = ClosTopology(groups=4, hosts_per_group=4, link_latency=2)

VICTIM = (0, 4)  # host 0 (group 0) -> host 4 (group 1)
AGGRESSOR = (0, 5)  # same source host, same destination group: shares the
#                     ingress crosspoint aggregate with the victim
VICTIM_RATE = 0.30
AGGRESSOR_RATE = 0.30


@dataclass
class CompositionResult:
    """Victim-flow outcomes in both networks.

    Attributes:
        single_rate / composed_rate: victim accepted flits/cycle.
        single_latency / composed_latency: victim mean latency (cycles).
        hol_blocked_cycles: egress HoL-blocking events in the composition.
        isolation_premium: state multiplier to restore per-flow
            isolation within the composition (storage model).
    """

    single_rate: float
    composed_rate: float
    single_latency: float
    composed_latency: float
    hol_blocked_cycles: int
    isolation_premium: float

    @property
    def rate_degradation(self) -> float:
        """Fraction of the victim's single-switch rate lost in composition."""
        return max(0.0, 1.0 - self.composed_rate / self.single_rate)

    def claims(self) -> List[Claim]:
        """Why the paper stays single-stage: aggregates keep the victim's
        bandwidth but not its latency, and shared FIFOs block."""
        return [
            Claim(
                "aggregate reservations still deliver the victim's bandwidth",
                "§4.4",
                self.composed_rate >= self.single_rate - 0.02,
                f"victim rate {self.composed_rate:.3f} composed vs "
                f"{self.single_rate:.3f} single (tol 0.02)",
            ),
            Claim(
                "shared crosspoint state inflates the victim's latency",
                "§4.4 'makes the QoS technique more complex'",
                self.composed_latency > 3 * self.single_latency,
                f"victim latency {self.composed_latency:.1f} composed vs "
                f"{self.single_latency:.1f} single (need > 3x)",
            ),
            Claim(
                "shared downlink buffers cause head-of-line blocking",
                "§4.4",
                self.hol_blocked_cycles > 500,
                f"{self.hol_blocked_cycles} HoL-blocking events (need > 500)",
            ),
        ]

    def format(self) -> str:
        rows = [
            ("victim accepted rate", self.single_rate, self.composed_rate),
            ("victim mean latency", self.single_latency, self.composed_latency),
        ]
        table = format_table(
            ["quantity", "single switch", "2-stage composition"],
            rows,
            title=(
                "Section 4.4 composition study: victim reserves "
                f"{VICTIM_RATE:.0%}, aggressor shares its aggregate"
            ),
        )
        extras = (
            f"victim rate degradation in composition: {100 * self.rate_degradation:.1f}%\n"
            f"egress HoL-blocking events: {self.hol_blocked_cycles}\n"
            f"state overhead to restore per-flow isolation: "
            f"{self.isolation_premium:.2f}x the aggregate design"
        )
        return table + "\n" + extras


#: A third party from group 2 contending the aggressor's destination, so
#: the aggressor's head packets stall in the shared downlink FIFO directly
#: in front of the victim's (head-of-line conflict).
CONTENDER = (8, 5)
CONTENDER_RATE = 0.50


def _composed_flows(
    topology: ClosTopology, background_rate: float
) -> List[ComposedFlow]:
    flows = [
        ComposedFlow(*VICTIM, rate=VICTIM_RATE, inject_rate=VICTIM_RATE * 0.95),
        ComposedFlow(*AGGRESSOR, rate=AGGRESSOR_RATE, inject_rate=None),  # bursts
        ComposedFlow(*CONTENDER, rate=CONTENDER_RATE, inject_rate=None),
    ]
    # Background: each remaining host in group 0 sends to its counterpart
    # in group 1, keeping the shared uplink busy.
    for local in range(1, topology.hosts_per_group):
        src = local
        dst = topology.hosts_per_group + local
        flows.append(
            ComposedFlow(src, dst, rate=background_rate, inject_rate=background_rate)
        )
    return flows


def _single_switch_workload(
    topology: ClosTopology, background_rate: float
) -> Workload:
    workload = Workload(name="composition-reference")
    workload.add(
        gb_flow(*VICTIM, reserved_rate=VICTIM_RATE, packet_length=8,
                inject_rate=VICTIM_RATE * 0.95)
    )
    workload.add(
        gb_flow(*AGGRESSOR, reserved_rate=AGGRESSOR_RATE, packet_length=8,
                inject_rate=None)
    )
    workload.add(
        gb_flow(*CONTENDER, reserved_rate=CONTENDER_RATE, packet_length=8,
                inject_rate=None)
    )
    for local in range(1, topology.hosts_per_group):
        src = local
        dst = topology.hosts_per_group + local
        workload.add(
            gb_flow(src, dst, reserved_rate=background_rate, packet_length=8,
                    inject_rate=background_rate)
        )
    return workload


def _composition_point(point: SweepPoint) -> Tuple[float, float, int]:
    """Worker: one leg of the study (``single`` or ``composed``).

    Returns ``(victim_rate, victim_mean_latency, hol_blocked_cycles)``;
    the single-switch reference has no shared downlink FIFO, so its HoL
    count is always zero.
    """
    topology = ClosTopology(
        groups=point.param("groups"),
        hosts_per_group=point.param("hosts_per_group"),
        link_latency=point.param("link_latency"),
    )
    horizon: int = point.param("horizon")
    background_rate: float = point.param("background_rate")
    if point.param("leg") == "single":
        config = SwitchConfig(
            radix=topology.num_hosts,
            channel_bits=16 * topology.num_hosts,
            gb_buffer_flits=32,
            qos=QoSConfig(sig_bits=4, frac_bits=8),
            gl_policer=GLPolicerConfig(reserved_rate=0.0),
        )
        single = run_simulation(
            config,
            _single_switch_workload(topology, background_rate),
            arbiter="ssvc",
            horizon=horizon,
            seed=point.seed,
        )
        victim_flow = FlowId(*VICTIM, TrafficClass.GB)
        return (
            single.accepted_rate(victim_flow),
            single.stats.flow_stats(victim_flow).latency.mean,
            0,
        )
    composed = MultiStageSimulation(
        topology,
        _composed_flows(topology, background_rate),
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        seed=point.seed,
    ).run(horizon)
    return (
        composed.accepted_rate(*VICTIM),
        composed.mean_latency(*VICTIM),
        composed.hol_blocked_cycles,
    )


def run_composition(
    topology: ClosTopology = DEFAULT_TOPOLOGY,
    horizon: int = 80_000,
    background_rate: float = 0.10,
    seed: int = 3,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CompositionResult:
    """Run the victim/aggressor study on both networks.

    The two legs are independent simulations, so they dispatch through
    :class:`~repro.parallel.SweepExecutor` (``jobs=2`` overlaps them;
    results are bit-identical at any job count).
    """
    shared = dict(
        groups=topology.groups,
        hosts_per_group=topology.hosts_per_group,
        link_latency=topology.link_latency,
        horizon=horizon,
        background_rate=background_rate,
    )
    points = [
        SweepPoint.make(0, "composition:single", seed=seed, leg="single", **shared),
        SweepPoint.make(1, "composition:composed", seed=seed, leg="composed", **shared),
    ]
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    results = executor.map(_composition_point, points)
    # Look legs up by point index — under salvage a leg can be missing, and
    # this study is meaningless with only one of its two legs.
    by_index = {r.point.index: r for r in results}
    missing = [p.label for p in points if p.index not in by_index]
    if missing:
        raise SimulationError(
            "composition study needs both legs; missing after salvage: "
            + ", ".join(missing)
        )
    single_rate, single_latency, _ = by_index[0].value
    composed_rate, composed_latency, hol_blocked = by_index[1].value

    storage = composed_storage_overhead(topology)
    return CompositionResult(
        single_rate=single_rate,
        composed_rate=composed_rate,
        single_latency=single_latency,
        composed_latency=composed_latency,
        hol_blocked_cycles=hol_blocked,
        isolation_premium=storage.isolation_premium,
    )


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry."""
    horizon = 25_000 if fast else 80_000
    result = run_composition(horizon=horizon, jobs=jobs, resilience=resilience)
    return Report(result.format(), tuple(result.claims()))
