"""Section 4.2 — SSVC adheres to reserved rates across random mixes.

"We simulated 20 combinations of reserved rates and a variety of packet
sizes and verified that in each case SSVC is able to give flows their
requested rates." This experiment draws random feasible reservation
vectors (scaled under the L/(L+1) arbitration ceiling so every rate is
physically achievable), saturates all sources, and checks each flow's
accepted rate against its reservation. Section 4.3 adds that all three
counter-management methods deliver rates "on average within 2 % of their
reserved rates" — the tolerance used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from ..traffic.patterns import single_output_workload
from ..types import CounterMode, FlowId, TrafficClass
from .claims import Claim, Report, judge
from .common import gb_only_config, run_simulation

#: Relative shortfall tolerance from the paper (Section 4.3).
RATE_TOLERANCE = 0.02


@dataclass
class AdherenceCase:
    """One random reservation mix and its outcome.

    Attributes:
        rates: reserved fractions per input.
        packet_flits: packet size used.
        accepted: measured flits/cycle per input.
        worst_shortfall: max over flows of (reserved - accepted)/reserved,
            clamped at 0 (over-delivery is not a shortfall).
    """

    rates: Tuple[float, ...]
    packet_flits: int
    accepted: Tuple[float, ...]

    @property
    def worst_shortfall(self) -> float:
        shortfalls = [
            max(0.0, (r - a) / r) for r, a in zip(self.rates, self.accepted)
        ]
        return max(shortfalls)

    @property
    def ok(self) -> bool:
        """Did every flow get its reservation within tolerance?"""
        return self.worst_shortfall <= RATE_TOLERANCE


@dataclass
class AdherenceResult:
    """All cases for one counter mode."""

    counter_mode: CounterMode
    cases: List[AdherenceCase] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        """True when every case met every reservation within tolerance."""
        return all(case.ok for case in self.cases)

    @property
    def worst_shortfall(self) -> float:
        """Worst relative shortfall across all cases."""
        return max(case.worst_shortfall for case in self.cases)

    def claim(self, num_cases: int) -> Claim:
        """Section 4.2's claim over the ``num_cases`` mixes the run drew."""
        lost = num_cases - len(self.cases)
        return judge(
            f"SSVC/{self.counter_mode.value} gives every flow of every random "
            f"mix its rate within {100 * RATE_TOLERANCE:.0f}%",
            "§4.2 'in each case SSVC is able to give flows their requested rates'",
            [f"{lost} of {num_cases} cases"] if lost else [],
            lambda: (
                self.all_ok,
                f"{sum(c.ok for c in self.cases)}/{num_cases} mixes ok, worst "
                f"shortfall {100 * self.worst_shortfall:.2f}%",
            ),
        )

    def format(self) -> str:
        rows = [
            (
                i,
                case.packet_flits,
                " ".join(f"{r:.2f}" for r in case.rates),
                100.0 * case.worst_shortfall,
                "ok" if case.ok else "FAIL",
            )
            for i, case in enumerate(self.cases)
        ]
        return format_table(
            ["case", "pkt flits", "reserved rates", "worst shortfall %", "status"],
            rows,
            title=(
                f"Section 4.2 rate adherence — SSVC/{self.counter_mode.value}, "
                f"tolerance {100 * RATE_TOLERANCE:.0f}%"
            ),
            float_format=".2f",
        )


def random_feasible_rates(
    num_inputs: int,
    packet_flits: int,
    rng: np.random.Generator,
    min_rate: float = 0.02,
) -> List[float]:
    """Draw a reservation vector achievable under the L/(L+1) ceiling."""
    raw = rng.dirichlet(np.ones(num_inputs) * 0.8)
    ceiling = packet_flits / (packet_flits + 1)
    headroom = 0.97  # leave slack so quantization noise cannot fail a case
    rates = np.maximum(raw * ceiling * headroom, min_rate)
    # Re-normalize in case the min_rate floor pushed the sum over budget.
    total = rates.sum()
    budget = ceiling * headroom
    if total > budget:
        rates = rates * (budget / total)
    return [float(r) for r in rates]


def _adherence_point(point: SweepPoint) -> Tuple[float, ...]:
    """Worker: simulate one pre-drawn reservation mix to saturation."""
    counter_mode = CounterMode(point.param("counter_mode"))
    config = gb_only_config(radix=8, sig_bits=4, counter_mode=counter_mode)
    rates = list(point.param("rates"))
    num_inputs = len(rates)
    workload = single_output_workload(
        num_inputs=num_inputs,
        output=0,
        reserved_rates=rates,
        packet_length=point.param("packet_flits"),
        inject_rate=None,  # saturate
    )
    sim_result = run_simulation(
        config,
        workload,
        arbiter="ssvc",
        horizon=point.param("horizon"),
        seed=point.seed,
    )
    return tuple(
        sim_result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
        for src in range(num_inputs)
    )


def run_rate_adherence(
    num_cases: int = 20,
    num_inputs: int = 8,
    packet_sizes: Sequence[int] = (1, 4, 8, 16),
    counter_mode: CounterMode = CounterMode.SUBTRACT,
    horizon: int = 120_000,
    seed: int = 5,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> AdherenceResult:
    """Run the Section 4.2 sweep: ``num_cases`` random mixes.

    Packet sizes rotate through ``packet_sizes`` ("a variety of packet
    sizes"); all sources saturate so congestion is permanent. All
    reservation vectors are drawn up-front from one seeded stream (the
    simulations never touch it), so the draws — and every simulation,
    which pins ``seed + case_index`` — are identical at any ``jobs``.
    """
    rng = np.random.default_rng(seed)
    result = AdherenceResult(counter_mode=counter_mode)
    points = []
    for case_index in range(num_cases):
        packet_flits = packet_sizes[case_index % len(packet_sizes)]
        rates = random_feasible_rates(num_inputs, packet_flits, rng)
        points.append(
            SweepPoint.make(
                case_index,
                f"adherence:{counter_mode.value}#{case_index}",
                seed=seed + case_index,
                rates=tuple(rates),
                packet_flits=packet_flits,
                counter_mode=counter_mode.value,
                horizon=horizon,
            )
        )
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    for point_result in executor.map(_adherence_point, points):
        point = point_result.point
        result.cases.append(
            AdherenceCase(
                rates=point.param("rates"),
                packet_flits=point.param("packet_flits"),
                accepted=point_result.value,
            )
        )
    return result


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry: all three counter modes."""
    cases = 6 if fast else 20
    horizon = 40_000 if fast else 120_000
    reports = []
    claims = []
    for mode in CounterMode:
        result = run_rate_adherence(
            num_cases=cases,
            counter_mode=mode,
            horizon=horizon,
            jobs=jobs,
            resilience=resilience,
        )
        reports.append(result.format())
        claims.append(result.claim(cases))
    return Report("\n\n".join(reports), tuple(claims))
