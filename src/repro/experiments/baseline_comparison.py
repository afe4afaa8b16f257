"""Section 2.2 ablation — why Virtual Clock beats static reservations.

"WRR and DWRR lead to network underutilization as they do not distribute
leftover bandwidth ... In a true TDM system ... that time slot is wasted."
The scenario: one input reserves a large share of the output but sits
*idle*; the remaining inputs are backlogged. A work-conserving clock-based
scheduler (SSVC, WFQ, original VC) hands the idle share to the backlogged
flows; TDM and strict WRR waste it.

A second scenario reproduces the fixed-priority critique (Section 2.2's
three differences from the DAC'12 design): under the 4-level scheme a
high-priority input starves everyone below it, and its two arbitration
cycles cost throughput even in the uncontended case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..metrics.report import format_table
from ..traffic.flows import FlowSpec, Workload, gb_flow
from ..types import FlowId, TrafficClass
from .claims import Claim, Report, near
from .common import CEILING, gb_only_config, run_simulation

#: Policies compared in the idle-reservation scenario.
IDLE_SCENARIO_POLICIES = ("ssvc", "virtual-clock", "wfq", "dwrr", "wrr-strict", "tdm")


@dataclass
class IdleReservationResult:
    """Total and per-flow throughput when a reserved flow goes idle.

    Attributes:
        idle_share: the reservation held by the idle input.
        totals: output throughput (flits/cycle) per policy.
        backlogged: combined throughput of the active flows per policy.
    """

    idle_share: float
    totals: Dict[str, float] = field(default_factory=dict)
    backlogged: Dict[str, float] = field(default_factory=dict)

    def claims(self) -> List[Claim]:
        """Section 2.2's underutilization critique, judged on the default
        :data:`IDLE_SCENARIO_POLICIES` run."""
        t = self.totals
        clock = max(("ssvc", "virtual-clock", "wfq"), key=lambda p: abs(t[p] - CEILING))
        return [
            Claim("work-conserving clocks hand an idle reservation to busy "
                  "flows", "§2.2", *near(f"farthest clock ({clock}) total",
                                         t[clock], CEILING, 0.01)),
            Claim("TDM wastes the idle input's slots",
                  "§2.2 'that time slot is wasted'", t["tdm"] < 0.55,
                  f"tdm {t['tdm']:.3f} (need < 0.55)"),
            Claim("strict WRR leaves leftover bandwidth unused",
                  "§2.2 'WRR and DWRR lead to network underutilization'",
                  t["wrr-strict"] < t["ssvc"] - 0.02,
                  f"wrr-strict {t['wrr-strict']:.3f} vs ssvc {t['ssvc']:.3f} "
                  f"(need 0.02 below)"),
        ]

    def format(self) -> str:
        rows = [
            (policy, self.totals[policy], self.backlogged[policy])
            for policy in self.totals
        ]
        return format_table(
            ["policy", "output total", "backlogged flows"],
            rows,
            title=(
                f"Idle-reservation ablation: input 0 reserves "
                f"{100 * self.idle_share:.0f}% but sends nothing (flits/cycle)"
            ),
        )


def run_idle_reservation(
    idle_share: float = 0.5,
    policies: Sequence[str] = IDLE_SCENARIO_POLICIES,
    horizon: int = 60_000,
    packet_flits: int = 8,
    seed: int = 41,
) -> IdleReservationResult:
    """One idle reserved flow + backlogged others, across policies."""
    config = gb_only_config(radix=8, sig_bits=4)
    num_active = 4
    active_share = (0.95 - idle_share) / num_active
    result = IdleReservationResult(idle_share=idle_share)
    for policy in policies:
        workload = Workload(name=f"idle-reservation-{policy}")
        workload.add(
            FlowSpec(
                flow=FlowId(0, 0, TrafficClass.GB),
                packet_length=packet_flits,
                process=None,  # reservation held, no traffic ever
                reserved_rate=idle_share,
            )
        )
        for src in range(1, 1 + num_active):
            workload.add(
                gb_flow(src, 0, active_share, packet_length=packet_flits, inject_rate=None)
            )
        sim_result = run_simulation(
            config, workload, arbiter=policy, horizon=horizon, seed=seed
        )
        result.totals[policy] = sim_result.stats.output_throughput(0)
        result.backlogged[policy] = sum(
            sim_result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
            for src in range(1, 1 + num_active)
        )
    return result


@dataclass
class FixedPriorityResult:
    """Starvation and arbitration-cost comparison vs. SSVC.

    Attributes:
        low_priority_rate: accepted rate of the lowest-priority input under
            the 4-level scheme (starved) and under SSVC (guaranteed).
        totals: output throughput per policy (2-cycle arbitration shows).
    """

    low_priority_rate: Dict[str, float] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)

    def claims(self) -> List[Claim]:
        """Section 2.2's critique of the DAC'12 fixed-priority design."""
        low, t = self.low_priority_rate, self.totals
        return [
            Claim("fixed priority starves lower levels; SSVC does not",
                  "§2.2 (DAC'12 critique)",
                  low["fixed-priority"] < 0.01 and low["ssvc"] > 0.3,
                  f"low-priority rate: fixed {low['fixed-priority']:.3f} "
                  f"(need < 0.01), ssvc {low['ssvc']:.3f} (need > 0.3)"),
            Claim("two arbitration cycles cap fixed priority at 8/10",
                  "§2.2 (DAC'12 critique)",
                  abs(t["fixed-priority"] - 0.8) <= 0.01
                  and abs(t["ssvc"] - CEILING) <= 0.01,
                  f"fixed {t['fixed-priority']:.3f} vs 0.800, ssvc "
                  f"{t['ssvc']:.3f} vs {CEILING:.3f} (tol 0.01)"),
        ]

    def format(self) -> str:
        rows = [
            (policy, self.low_priority_rate[policy], self.totals[policy])
            for policy in self.low_priority_rate
        ]
        return format_table(
            ["policy", "low-priority flow rate", "output total"],
            rows,
            title="Fixed-priority (DAC'12) vs SSVC: starvation and arbitration cost",
        )


def run_fixed_priority_comparison(
    horizon: int = 60_000,
    packet_flits: int = 8,
    seed: int = 43,
) -> FixedPriorityResult:
    """Two saturating inputs, one at priority 3, one at priority 0."""
    config = gb_only_config(radix=8, sig_bits=4)
    result = FixedPriorityResult()
    for policy in ("fixed-priority", "ssvc"):
        workload = Workload(name=f"fixed-priority-{policy}")
        high = gb_flow(0, 0, 0.5, packet_length=packet_flits, inject_rate=None)
        low = gb_flow(1, 0, 0.45, packet_length=packet_flits, inject_rate=None)
        workload.add(FlowSpec(**{**high.__dict__, "priority_level": 3}))
        workload.add(FlowSpec(**{**low.__dict__, "priority_level": 0}))
        sim_result = run_simulation(
            config, workload, arbiter=policy, horizon=horizon, seed=seed
        )
        result.low_priority_rate[policy] = sim_result.accepted_rate(
            FlowId(1, 0, TrafficClass.GB)
        )
        result.totals[policy] = sim_result.stats.output_throughput(0)
    return result


def main(fast: bool = False) -> Report:
    """CLI entry: both scenarios."""
    horizon = 20_000 if fast else 60_000
    idle = run_idle_reservation(horizon=horizon)
    fixed = run_fixed_priority_comparison(horizon=horizon)
    return Report(
        idle.format() + "\n\n" + fixed.format(),
        tuple(idle.claims() + fixed.claims()),
    )
