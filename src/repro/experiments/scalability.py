"""Section 4.4 — scalability: lane feasibility and quantization accuracy.

Two parts:

1. The closed-form lane analysis: ``num_lanes = bus width / radix``, at
   least 3 lanes for three classes, so 128-bit buses carry radix 8-32 and
   radix 64 needs 256 bits.
2. "The accuracy of the SSVC technique increases with more lanes of
   arbitration": sweeping the number of significant auxVC bits (1 bit = 2
   levels ... 5 bits = 32 levels) trades LRG-like equal sharing against
   exact Virtual Clock behaviour. We measure worst rate shortfall and the
   latency spread across allocations at each setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..hw.lanes import lane_feasibility_table
from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from ..traffic.flows import Workload, gb_flow
from ..traffic.generators import BernoulliInjection
from ..traffic.patterns import single_output_workload
from ..types import FlowId, TrafficClass
from .claims import Claim, Report, judge
from .common import gb_only_config, run_simulation

#: Allocation mix reused across the sig-bit sweep.
SWEEP_ALLOCATIONS = (0.40, 0.20, 0.10, 0.08, 0.05, 0.02)


@dataclass
class SigBitsPoint:
    """Outcome at one quantization setting.

    Attributes:
        sig_bits: significant auxVC bits (2**sig_bits thermometer levels).
        worst_shortfall: max relative reservation shortfall, saturated.
        latency_spread: stddev of per-flow mean latencies at offered ==
            reserved load (lower = fairer, LRG-like).
    """

    sig_bits: int
    worst_shortfall: float
    latency_spread: float


@dataclass
class ScalabilityResult:
    """Lane table plus the accuracy sweep."""

    lane_rows: List[Tuple[int, int, int, bool, int]]
    accuracy: List[SigBitsPoint] = field(default_factory=list)

    def claims(self, sig_bits_values: Sequence[int]) -> List[Claim]:
        """Section 4.4's lane claim and the accuracy trade-off, judged over
        the ``sig_bits_values`` the sweep ran (a salvaged setting skips)."""
        found = {p.sig_bits: p for p in self.accuracy}
        missing = [f"{b} sig bits" for b in sig_bits_values if b not in found]
        coarse, fine = min(sig_bits_values), max(sig_bits_values)
        infeasible = [(r, w) for r, w, _, ok, _ in self.lane_rows if not ok]
        worst = max((p.worst_shortfall for p in self.accuracy), default=0.0)
        return [
            Claim(
                "128-bit buses carry radix 8-32; radix 64 needs 256 bits",
                "§4.4",
                infeasible == [(64, 128)],
                f"infeasible (radix, bus bits): {infeasible}",
            ),
            judge(
                "every quantization still meets its reservations", "§4.4",
                missing,
                lambda: (worst < 0.05,
                         f"worst shortfall {100 * worst:.2f}% (need < 5%)"),
            ),
            judge(
                "fewer significant bits give flatter (more LRG) latency",
                "§4.4", missing,
                lambda: (
                    found[coarse].latency_spread < found[fine].latency_spread,
                    f"latency spread {found[coarse].latency_spread:.2f} at "
                    f"sig_bits={coarse} vs {found[fine].latency_spread:.2f} at "
                    f"sig_bits={fine}",
                ),
            ),
        ]

    def format(self) -> str:
        lanes = format_table(
            ["radix", "bus (bits)", "lanes", "3 classes", "GB levels"],
            self.lane_rows,
            title="Section 4.4 lane feasibility (num_lanes = width / radix)",
        )
        acc = format_table(
            ["sig bits", "levels", "worst shortfall %", "latency spread (cycles)"],
            [
                (p.sig_bits, 1 << p.sig_bits, 100 * p.worst_shortfall, p.latency_spread)
                for p in self.accuracy
            ],
            title="SSVC accuracy vs quantization",
            float_format=".2f",
        )
        return lanes + "\n\n" + acc


def _sig_bits_point(point: SweepPoint) -> Tuple[float, float]:
    """Worker: both runs (saturated + near-reservation) for one sig_bits."""
    sig_bits = point.param("sig_bits")
    rates = list(point.param("rates"))
    horizon = point.param("horizon")
    num_inputs = len(rates)
    config = gb_only_config(radix=num_inputs, sig_bits=sig_bits)
    # Saturated run: rate adherence.
    workload = single_output_workload(
        num_inputs, 0, rates, packet_length=8, inject_rate=None
    )
    saturated = run_simulation(
        config, workload, arbiter="ssvc", horizon=horizon, seed=point.seed
    )
    shortfalls = []
    for src, rate in enumerate(rates):
        accepted = saturated.accepted_rate(FlowId(src, 0, TrafficClass.GB))
        shortfalls.append(max(0.0, (rate - accepted) / rate))
    # Offered-near-reservation run: latency spread across allocations.
    loaded = Workload(name="sigbits-load")
    for src, rate in enumerate(rates):
        loaded.add(
            gb_flow(
                src, 0, rate, packet_length=8,
                process=BernoulliInjection(rate * 0.95),
            )
        )
    light = run_simulation(
        config, loaded, arbiter="ssvc", horizon=horizon, seed=point.seed
    )
    latencies = []
    for src in range(num_inputs):
        flow = FlowId(src, 0, TrafficClass.GB)
        if light.stats.flow_stats(flow).delivered_packets == 0:
            raise SimulationError(
                f"sig-bits sweep flow {flow} delivered no packets in "
                f"{horizon} cycles; latency spread undefined — lengthen "
                f"the horizon"
            )
        latencies.append(light.mean_latency(flow))
    return max(shortfalls), float(np.std(np.asarray(latencies)))


def run_sig_bits_sweep(
    sig_bits_values: Sequence[int] = (1, 2, 3, 4, 5),
    allocations: Sequence[float] = SWEEP_ALLOCATIONS,
    horizon: int = 120_000,
    seed: int = 13,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> List[SigBitsPoint]:
    """Measure adherence and latency spread at each quantization."""
    num_inputs = 8
    rates = list(allocations) + [0.01] * (num_inputs - len(allocations))
    sweep = [
        SweepPoint.make(
            i,
            f"sigbits:{sig_bits}",
            seed=seed,
            sig_bits=sig_bits,
            rates=tuple(rates),
            horizon=horizon,
        )
        for i, sig_bits in enumerate(sig_bits_values)
    ]
    points = []
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    for point_result in executor.map(_sig_bits_point, sweep):
        worst_shortfall, latency_spread = point_result.value
        points.append(
            SigBitsPoint(
                sig_bits=point_result.point.param("sig_bits"),
                worst_shortfall=worst_shortfall,
                latency_spread=latency_spread,
            )
        )
    return points


def run_scalability(
    horizon: int = 120_000,
    sig_bits_values: Sequence[int] = (1, 2, 3, 4, 5),
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> ScalabilityResult:
    """Lane table plus the quantization accuracy sweep."""
    return ScalabilityResult(
        lane_rows=lane_feasibility_table(),
        accuracy=run_sig_bits_sweep(
            sig_bits_values, horizon=horizon, jobs=jobs, resilience=resilience
        ),
    )


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry."""
    horizon = 40_000 if fast else 120_000
    bits = (2, 4) if fast else (1, 2, 3, 4, 5)
    result = run_scalability(
        horizon=horizon, sig_bits_values=bits, jobs=jobs, resilience=resilience
    )
    return Report(result.format(), tuple(result.claims(bits)))
