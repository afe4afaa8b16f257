"""Fig. 4 — bandwidth received by flows without and with QoS.

Setup (paper Section 4.2): 8 inputs, 1 output, 128-bit output channel,
8-flit packets, 16-flit buffers, GB traffic only, 4 significant auxVC bits.
Each input reserves a fraction of the output's bandwidth
(40/20/10/10/5/5/5/5 %); the injection rate per input sweeps from light
load to saturation.

Expected shapes:

* **(a) LRG, no QoS** — every flow's accepted throughput tracks its offered
  load until congestion, then all flows collapse to an *equal* share; the
  output tops out at 8/9 = 0.889 flits/cycle (one re-arbitration cycle per
  8-flit packet).
* **(b) SSVC** — during congestion flows keep at least their reserved
  rates (the residual capacity shortfall lands on the largest flow, since
  0.40+0.20+... = 100 % of the channel but only 88.9 % is achievable).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from ..traffic.patterns import FIG4_RESERVED_RATES
from ..types import FlowId, TrafficClass
from .claims import Claim, Report, Verdict, judge, near
from .common import CEILING, gb_only_config, run_simulation

#: Injection rates (flits/input/cycle) swept along Fig. 4's x-axis.
DEFAULT_SWEEP = (0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.40, 0.60, 0.80, 1.0)


@dataclass
class Fig4Result:
    """Accepted-throughput curves for one arbitration policy.

    Attributes:
        arbiter: preset name ("lrg" or "ssvc").
        reserved_rates: per-input reserved fractions.
        injection_rates: swept x-axis values (1.0 == saturating sources).
        accepted: ``accepted[inject_rate][input] ->`` flits/cycle.
        total_throughput: output throughput per injection rate.
        grants: arbitration grants performed per injection rate (lets the
            bench suite report grants/sec for a whole sweep).
    """

    arbiter: str
    reserved_rates: Tuple[float, ...]
    injection_rates: Tuple[float, ...]
    accepted: Dict[float, List[float]] = field(default_factory=dict)
    total_throughput: Dict[float, float] = field(default_factory=dict)
    grants: Dict[float, int] = field(default_factory=dict)

    @property
    def completed_rates(self) -> Tuple[float, ...]:
        """Injection rates that actually have results.

        Equal to :attr:`injection_rates` on a complete run; shorter when a
        salvage run left explicit holes (see docs/PARALLELISM.md).
        """
        return tuple(r for r in self.injection_rates if r in self.accepted)

    @property
    def saturation_shares(self) -> List[float]:
        """Per-flow accepted rates at the highest injection point."""
        top = self.injection_rates[-1]
        if top not in self.accepted:
            missing = [r for r in self.injection_rates if r not in self.accepted]
            raise KeyError(
                f"fig4 {self.arbiter}: saturation point {top:g} has no result "
                f"(salvaged holes at rates {missing})"
            )
        return self.accepted[top]

    def claims(self) -> List[Claim]:
        """This panel's Fig. 4 claims; a salvaged point skips its claims.

        At the lightest load every flow gets what it offers; at saturation
        the output reaches the 8/9 ceiling and the shares follow the
        policy: equal under LRG, at least the reservation under SSVC, with
        the ceiling's shortfall landing on the largest flow.
        """
        low, top = self.injection_rates[0], self.injection_rates[-1]
        arb, shares = self.arbiter, self.accepted.get(top, [])

        def hole(rate: float) -> List[str]:
            return [] if rate in self.accepted else [f"{arb}@{rate:g}"]

        def farthest(values: List[float], target: float, label: str, tol: float) -> Verdict:
            return near(label, max(values, key=lambda v: abs(v - target)), target, tol)

        def reserved() -> Verdict:
            margin, flow = min(
                (s - r, i) for i, (s, r) in enumerate(zip(shares, self.reserved_rates))
                if i > 0
            )
            return margin >= -0.01, (f"worst share - reserved {margin:+.4f} "
                                     f"(flow{flow}; tol 0.01)")

        out = [
            judge("below congestion every flow gets the rate it offers",
                  "Fig. 4", hole(low),
                  lambda: farthest(self.accepted[low], low,
                                   f"{arb} @ {low:g}: farthest flow", 0.012)),
            judge("the output saturates at 8/9 flit/cycle", "§4.2, Fig. 4",
                  hole(top),
                  lambda: near(f"{arb} total", self.total_throughput[top], CEILING, 0.01)),
        ]
        if arb == "lrg":
            out.append(judge(
                "without QoS, congestion gives every flow an equal share",
                "Fig. 4(a)", hole(top),
                lambda: farthest(shares, CEILING / len(shares),
                                 "farthest share vs 8/9 / N", 0.01),
            ))
        elif arb == "ssvc":
            out.append(judge(
                "all inputs get at least their reserved rate of bandwidth "
                "during congestion", "Fig. 4(b)", hole(top), reserved,
            ))
            out.append(judge(
                "the largest flow absorbs the ceiling's shortfall", "Fig. 4(b)",
                hole(top),
                lambda: near("flow0 vs 8/9 - other reservations", shares[0],
                             CEILING - sum(self.reserved_rates[1:]), 0.02),
            ))
        return out

    def format(self) -> str:
        """Fig. 4 as an ASCII table (rows = injection rates)."""
        headers = ["inject"] + [
            f"flow{i} (r={r:.2f})" for i, r in enumerate(self.reserved_rates)
        ] + ["total"]
        rows = []
        for rate in self.completed_rates:
            rows.append(
                [rate] + list(self.accepted[rate]) + [self.total_throughput[rate]]
            )
        table = format_table(
            headers,
            rows,
            title=f"Fig.4 accepted throughput (flits/cycle) — {self.arbiter}",
        )
        holes = [r for r in self.injection_rates if r not in self.accepted]
        if holes:
            table += (
                "\nMISSING points (salvaged failures): "
                + ", ".join(f"{r:g}" for r in holes)
            )
        return table

    def chart(self, flows: "tuple[int, ...]" = (0, 1, 4)) -> str:
        """The figure's curves for selected flows, as an ASCII chart."""
        from ..metrics.ascii_plot import line_chart

        rates = self.completed_rates
        series = {
            f"flow{i} r={self.reserved_rates[i]:.2f}": [
                self.accepted[rate][i] for rate in rates
            ]
            for i in flows
        }
        return line_chart(
            series,
            [f"{r:g}" for r in rates],
            title=f"Fig.4 shape — {self.arbiter} (x: injection, y: accepted)",
            y_label="fl/cy",
        )


def _fig4_point(point: SweepPoint) -> Tuple[List[float], float, int]:
    """Worker: one injection-rate point, rebuilt entirely from the envelope.

    Module-level and driven only by ``point`` so the parallel executor can
    pickle it into worker processes; returns plain floats/ints.
    """
    config = gb_only_config(radix=8, channel_bits=128, sig_bits=4)
    arbitration_cycles = point.param("arbitration_cycles")
    if arbitration_cycles is not None:
        config = replace(config, arbitration_cycles=arbitration_cycles)
    reserved_rates = point.param("reserved_rates")
    rate = point.param("rate")
    from ..traffic.patterns import single_output_workload

    workload = single_output_workload(
        num_inputs=len(reserved_rates),
        output=0,
        reserved_rates=list(reserved_rates),
        packet_length=point.param("packet_flits"),
        inject_rate=None if rate >= 1.0 else rate,
    )
    sim_result = run_simulation(
        config,
        workload,
        arbiter=point.param("arbiter"),
        horizon=point.param("horizon"),
        seed=point.seed,
    )
    per_flow = [
        sim_result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
        for src in range(len(reserved_rates))
    ]
    return per_flow, sim_result.stats.output_throughput(0), sim_result.grants


def run_fig4(
    arbiter: str,
    injection_rates: Sequence[float] = DEFAULT_SWEEP,
    horizon: int = 60_000,
    packet_flits: int = 8,
    reserved_rates: Sequence[float] = FIG4_RESERVED_RATES,
    seed: int = 11,
    arbitration_cycles: Optional[int] = None,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Fig4Result:
    """Run one Fig. 4 panel (``arbiter="lrg"`` for (a), ``"ssvc"`` for (b)).

    Args:
        arbiter: arbitration preset.
        injection_rates: swept per-input flit rates; 1.0 uses saturating
            sources (pure congestion).
        horizon: cycles per point.
        packet_flits: packet size (paper: 8).
        reserved_rates: per-input reserved fractions (paper's mix).
        seed: RNG seed (every point pins it, so results are independent of
            the sweep's composition and of ``jobs``).
        arbitration_cycles: override of the re-arbitration bubble (the
            bubble ablation passes 0).
        jobs: sweep-point worker processes; 1 runs in-process and is
            bit-identical to any parallel run (see docs/PARALLELISM.md).
        resilience: journaling/retry/salvage bundle threaded into the
            executor; under salvage the returned result may have holes
            (see :attr:`Fig4Result.completed_rates`).
    """
    result = Fig4Result(
        arbiter=arbiter,
        reserved_rates=tuple(reserved_rates),
        injection_rates=tuple(injection_rates),
    )
    points = [
        SweepPoint.make(
            i,
            f"fig4:{arbiter}@{rate:g}",
            seed=seed,
            rate=rate,
            arbiter=arbiter,
            horizon=horizon,
            packet_flits=packet_flits,
            reserved_rates=tuple(reserved_rates),
            arbitration_cycles=arbitration_cycles,
        )
        for i, rate in enumerate(injection_rates)
    ]
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    for point_result in executor.map(_fig4_point, points):
        rate = point_result.point.param("rate")
        per_flow, total, grants = point_result.value
        result.accepted[rate] = per_flow
        result.total_throughput[rate] = total
        result.grants[rate] = grants
    return result


def run_both_panels(
    injection_rates: Sequence[float] = DEFAULT_SWEEP,
    horizon: int = 60_000,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Tuple[Fig4Result, Fig4Result]:
    """Run Fig. 4(a) (LRG) and Fig. 4(b) (SSVC)."""
    return (
        run_fig4("lrg", injection_rates, horizon, jobs=jobs, resilience=resilience),
        run_fig4("ssvc", injection_rates, horizon, jobs=jobs, resilience=resilience),
    )


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry: run both panels, report them and their claims."""
    horizon = 20_000 if fast else 60_000
    sweep = (0.05, 0.10, 0.20, 0.40, 1.0) if fast else DEFAULT_SWEEP
    lrg, ssvc = run_both_panels(sweep, horizon, jobs=jobs, resilience=resilience)
    return Report(
        "\n\n".join([lrg.format(), lrg.chart(), ssvc.format(), ssvc.chart()]),
        tuple(lrg.claims() + ssvc.claims()),
    )
