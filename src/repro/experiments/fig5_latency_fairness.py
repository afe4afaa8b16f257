"""Fig. 5 — packet latency vs. bandwidth allocation, four schemes.

Setup (paper Section 4.3): flows with a spread of reserved rates share one
output; each injects at (a configurable fraction of) its reserved rate so
the channel is loaded but feasible. The figure plots each flow's average
packet latency against its allocation for:

* **Original Virtual Clock** — exact auxVC comparison: latency is coupled
  to rate, so low-allocation flows (< 10 %) suffer very high latency;
* **SSVC / subtract-real-clock** — the coarse comparison plus LRG
  tie-breaking "greatly reduces the latency for smaller allocations";
* **SSVC / divide-by-2** and **SSVC / reset** — further decoupling,
  especially under bursty injection; reset shows the least variance.

All schemes must still deliver every flow's reserved rate within ~2 %
(Section 4.3's closing claim) — the result records adherence too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from ..traffic.flows import Workload, gb_flow
from ..traffic.generators import BernoulliInjection, BurstyInjection
from ..types import FlowId, TrafficClass
from .claims import Claim, Report, Verdict, judge, near
from .common import gb_only_config, run_simulation

#: The four Fig. 5 curves, as arbiter presets.
FIG5_SCHEMES = ("virtual-clock", "ssvc-subtract", "ssvc-halve", "ssvc-reset")

#: Allocation mix spanning the paper's 1-40 % x-axis (sums to 0.86).
DEFAULT_ALLOCATIONS = (0.40, 0.20, 0.10, 0.05, 0.04, 0.03, 0.02, 0.02)


@dataclass
class Fig5Result:
    """Latency-vs-allocation curves for all schemes.

    Attributes:
        allocations: per-input reserved fractions.
        mean_latency: ``mean_latency[scheme][input]`` in cycles.
        accepted_ratio: ``accepted_ratio[scheme][input]`` — delivered rate
            over offered rate (the rate-adherence check).
        latency_stddev_across_flows: spread of per-flow mean latencies per
            scheme; the paper's "reset has the least variance" claim.
    """

    allocations: Tuple[float, ...]
    bursty: bool
    mean_latency: Dict[str, List[float]] = field(default_factory=dict)
    accepted_ratio: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def latency_stddev_across_flows(self) -> Dict[str, float]:
        """Standard deviation of mean latency across allocations."""
        return {
            scheme: float(np.std(np.asarray(lat)))
            for scheme, lat in self.mean_latency.items()
        }

    def claims(self) -> List[Claim]:
        """The Section 4.3 claims this panel can judge.

        Steady injection: original Virtual Clock's smallest allocations
        wait far longer than its largest, halving and resetting flatten
        that curve, and every scheme delivers each flow's rate.
        Bursty injection: resetting flattens the curve there too. A scheme
        missing from a salvage run skips the claims that need it.
        """
        lat, ratio = self.mean_latency, self.accepted_ratio
        spread = self.latency_stddev_across_flows

        def missing(schemes: Sequence[str]) -> List[str]:
            return [s for s in schemes if s not in lat]

        def flatter(schemes: Sequence[str]) -> Verdict:
            return (all(spread[s] < spread["virtual-clock"] for s in schemes),
                    "latency stddev: " + ", ".join(
                        f"{s} {spread[s]:.1f}" for s in ("virtual-clock", *schemes)))

        if self.bursty:
            return [judge(
                "resetting decouples latency from allocation under bursts",
                "§4.3 'especially during bursty injection'",
                missing(("virtual-clock", "ssvc-reset")),
                lambda: flatter(("ssvc-reset",)),
            )]

        def coupled() -> Verdict:
            vc = lat["virtual-clock"]
            return (min(vc[-2:]) > 3 * vc[0],
                    f"virtual-clock: smallest flows wait >= {min(vc[-2:]):.1f}, "
                    f"largest {vc[0]:.1f} (need > 3x)")

        def floors() -> Verdict:
            worst = {s: min(ratio[s]) for s in FIG5_SCHEMES}
            return all(w >= 0.97 for w in worst.values()), "worst flow accepted/offered: " + ", ".join(
                f"{s} {w:.4f}" for s, w in worst.items())

        return [
            judge("low allocations suffer high latency under original VC",
                  "§4.3", missing(("virtual-clock",)), coupled),
            judge("halving and resetting decouple latency from allocation",
                  "Fig. 5", missing(("virtual-clock", "ssvc-halve", "ssvc-reset")),
                  lambda: flatter(("ssvc-halve", "ssvc-reset"))),
            judge("all methods give flows their rates on average within 2%",
                  "§4.3", missing(FIG5_SCHEMES),
                  lambda: near("lowest scheme mean accepted/offered",
                               min(float(np.mean(ratio[s])) for s in FIG5_SCHEMES),
                               1.0, 0.02)),
            judge("no flow falls short: each gets >= 97% of its rate",
                  "§4.3", missing(FIG5_SCHEMES), floors),
        ]

    def format(self) -> str:
        """Fig. 5 as an ASCII table (rows = allocations)."""
        headers = ["alloc %"] + list(self.mean_latency)
        rows = []
        for i, alloc in enumerate(self.allocations):
            rows.append(
                [100.0 * alloc] + [self.mean_latency[s][i] for s in self.mean_latency]
            )
        spread = self.latency_stddev_across_flows
        rows.append(["stddev"] + [spread[s] for s in self.mean_latency])
        regime = "bursty" if self.bursty else "steady"
        return format_table(
            headers,
            rows,
            title=f"Fig.5 mean packet latency (cycles) vs allocation — {regime} injection",
            float_format=".1f",
        )

    def chart(self) -> str:
        """The figure's latency/allocation curves as an ASCII chart."""
        from ..metrics.ascii_plot import line_chart

        regime = "bursty" if self.bursty else "steady"
        return line_chart(
            dict(self.mean_latency),
            [f"{100 * a:g}%" for a in self.allocations],
            title=(
                f"Fig.5 shape — {regime} (x: allocation, y: mean latency)"
            ),
            y_label="cycles",
        )


def build_fig5_workload(
    allocations: Sequence[float],
    packet_flits: int = 8,
    load_fraction: float = 1.0,
    bursty: bool = False,
) -> Workload:
    """Flows injecting at ``load_fraction`` of their reserved rate."""
    workload = Workload(name="fig5")
    for src, alloc in enumerate(allocations):
        rate = alloc * load_fraction
        process = (
            BurstyInjection(rate, burst_packets=4.0)
            if bursty
            else BernoulliInjection(rate)
        )
        workload.add(gb_flow(src, 0, alloc, packet_length=packet_flits, process=process))
    return workload


def _fig5_point(point: SweepPoint) -> Tuple[List[float], List[float]]:
    """One Fig. 5 scheme run (module-level so worker processes can pickle).

    Returns ``(mean latencies, accepted ratios)`` per allocation.

    Raises:
        SimulationError: if any flow delivered zero packets inside the
            measurement window — its mean latency is undefined, and
            silently plotting 0.0 cycles (the former behavior) reads as a
            perfect result instead of a broken run.
    """
    allocations: Tuple[float, ...] = point.param("allocations")
    config = gb_only_config(
        radix=8, channel_bits=128, sig_bits=point.param("sig_bits")
    )
    workload = build_fig5_workload(
        allocations,
        point.param("packet_flits"),
        point.param("load_fraction"),
        point.param("bursty"),
    )
    sim_result = run_simulation(
        config,
        workload,
        arbiter=point.param("scheme"),
        horizon=point.param("horizon"),
        seed=point.seed,
    )
    latencies, ratios = [], []
    for src in range(len(allocations)):
        flow = FlowId(src, 0, TrafficClass.GB)
        stats = sim_result.stats.flow_stats(flow)
        if stats.delivered_packets == 0:
            raise SimulationError(
                f"fig5 flow {flow} delivered no packets in "
                f"{point.param('horizon')} cycles ({point.label}); "
                f"mean latency undefined — lengthen the horizon"
            )
        latencies.append(stats.latency.mean)
        offered = stats.offered_rate(sim_result.stats.measured_cycles)
        accepted = stats.accepted_rate(sim_result.stats.measured_cycles)
        ratios.append(accepted / offered if offered > 0 else 1.0)
    return latencies, ratios


def run_fig5(
    allocations: Sequence[float] = DEFAULT_ALLOCATIONS,
    schemes: Sequence[str] = FIG5_SCHEMES,
    horizon: int = 300_000,
    packet_flits: int = 8,
    load_fraction: float = 0.95,
    bursty: bool = False,
    sig_bits: int = 4,
    seed: int = 23,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Fig5Result:
    """Run the Fig. 5 comparison.

    Args:
        allocations: reserved fraction per input (one flow each, one
            output). Must be feasible (sum < 8/9 with the bubble).
        schemes: arbiter presets to compare.
        horizon: cycles per scheme.
        packet_flits: packet size.
        load_fraction: injection rate as a fraction of the reservation.
            The 0.95 default keeps each flow's queue stable (injecting at
            exactly the guaranteed service rate is critically loaded and
            drowns the scheme differences in queueing noise).
        bursty: use on/off bursts (Section 4.3's bursty regime).
        sig_bits: SSVC quantization (4 in the paper's runs).
        seed: RNG seed (same across schemes so offered traffic matches).
        jobs: worker processes for the per-scheme fan-out (results are
            identical at any value; see docs/PARALLELISM.md).
        resilience: journaling/retry/salvage bundle threaded into the
            executor; under salvage a failed scheme is simply absent from
            the result's dicts (the outcome records why).
    """
    result = Fig5Result(allocations=tuple(allocations), bursty=bursty)
    points = [
        SweepPoint.make(
            i,
            f"fig5:{scheme}{':bursty' if bursty else ''}",
            seed=seed,  # shared across schemes so offered traffic matches
            scheme=scheme,
            allocations=tuple(allocations),
            horizon=horizon,
            packet_flits=packet_flits,
            load_fraction=load_fraction,
            bursty=bursty,
            sig_bits=sig_bits,
        )
        for i, scheme in enumerate(schemes)
    ]
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    for point_result in executor.map(_fig5_point, points):
        latencies, ratios = point_result.value
        scheme = point_result.point.param("scheme")
        result.mean_latency[scheme] = latencies
        result.accepted_ratio[scheme] = ratios
    return result


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry: steady and bursty panels and their claims."""
    horizon = 120_000 if fast else 300_000
    steady = run_fig5(horizon=horizon, bursty=False, jobs=jobs, resilience=resilience)
    burst = run_fig5(horizon=horizon, bursty=True, jobs=jobs, resilience=resilience)
    return Report(
        "\n\n".join(
            [steady.format(), steady.chart(), burst.format(), burst.chart()]
        ),
        tuple(steady.claims() + burst.claims()),
    )
