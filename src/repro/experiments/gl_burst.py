"""Section 3.4, Eqs. 2-3 — GL burst budgets honour latency constraints.

Given GL inputs with latency constraints ``L_1 <= ... <= L_N``, the paper
derives per-input burst budgets ``sigma_n`` (in packets) such that if every
input bursts within its budget, every input still meets its constraint.
This experiment makes all inputs burst *simultaneously* (worst-case
alignment) at exactly ``floor(sigma_n)`` packets and checks each input's
worst observed waiting time against its ``L_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..core.gl_bound import burst_budgets
from ..metrics.report import format_table
from ..traffic.flows import Workload, gb_flow, gl_flow
from ..traffic.generators import TraceInjection
from ..types import FlowId, TrafficClass
from .claims import Claim, Report
from .common import run_simulation


@dataclass
class BurstCaseResult:
    """One input's budget vs. its measured worst wait.

    Attributes:
        latency_bound: the input's constraint L_n in cycles.
        budget_packets: sigma_n (fractional, as derived).
        burst_packets: the integer burst actually injected.
        max_waiting: worst measured injection-to-grant wait.
    """

    input_port: int
    latency_bound: float
    budget_packets: float
    burst_packets: int
    max_waiting: int

    @property
    def holds(self) -> bool:
        """Did the input meet its latency constraint?"""
        return self.max_waiting <= self.latency_bound


@dataclass
class GLBurstResult:
    """All inputs' outcomes for one burst experiment."""

    l_max: int
    cases: List[BurstCaseResult] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """True when every input met its constraint."""
        return all(case.holds for case in self.cases)

    def claim(self) -> Claim:
        """Eqs. 2-3: budget-sized simultaneous bursts meet every L_n."""
        return Claim(
            "GL bursts within their budgets meet every latency constraint",
            "§3.4 Eqs. 2-3",
            self.all_hold,
            "max wait / L_n: " + ", ".join(
                f"{c.max_waiting}/{c.latency_bound:g}" for c in self.cases
            ),
        )

    def format(self) -> str:
        rows = [
            (
                c.input_port,
                c.latency_bound,
                c.budget_packets,
                c.burst_packets,
                c.max_waiting,
                "yes" if c.holds else "NO",
            )
            for c in self.cases
        ]
        return format_table(
            ["input", "L_n (cycles)", "sigma_n (pkts)", "burst", "max wait", "met"],
            rows,
            title=f"GL burst budgets (Eqs. 2-3), l_max={self.l_max}",
            float_format=".2f",
        )


def run_gl_burst(
    latency_bounds: Sequence[float] = (120.0, 200.0, 320.0),
    gl_packet_flits: int = 2,
    gb_packet_flits: int = 8,
    repeats: int = 20,
    seed: int = 31,
) -> GLBurstResult:
    """Inject simultaneous budget-sized GL bursts and check every bound.

    Args:
        latency_bounds: one constraint per GL input, any order.
        gl_packet_flits: length of each GL packet (must be <= l_max).
        gb_packet_flits: the congesting GB packet length; the channel-
            release term of the budgets uses this as ``l_max``.
        repeats: how many aligned burst rounds to run (more rounds, more
            adversarial LRG phasings).
        seed: RNG seed for the background traffic.
    """
    bounds = sorted(float(b) for b in latency_bounds)
    n_gl = len(bounds)
    budgets = burst_budgets(bounds, l_max=gb_packet_flits)
    bursts = [max(int(math.floor(b)), 0) for b in budgets]
    # Space rounds far enough apart that one round fully drains first.
    round_period = int(4 * (bounds[-1] + gb_packet_flits))
    # GL buffers must hold a whole burst so waiting is measured in-switch.
    buffer_flits = max(max(bursts, default=1), 1) * gl_packet_flits

    config = SwitchConfig(
        radix=8,
        channel_bits=128,
        gb_buffer_flits=16,
        gl_buffer_flits=max(buffer_flits, 4),
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        gl_policer=GLPolicerConfig(reserved_rate=0.10, burst_window=None),
    )
    workload = Workload(name="gl-burst")
    for src in range(config.radix):
        workload.add(
            gb_flow(src, 0, 0.85 / config.radix, packet_length=gb_packet_flits, inject_rate=None)
        )
    for src in range(n_gl):
        if bursts[src] == 0:
            continue
        times = [
            round_index * round_period  # whole burst arrives at once
            for round_index in range(1, repeats + 1)
            for _ in range(bursts[src])
        ]
        workload.add(
            gl_flow(
                src,
                0,
                packet_length=gl_packet_flits,
                process=TraceInjection(sorted(times)),
            )
        )
    horizon = (repeats + 2) * round_period
    sim_result = run_simulation(
        config, workload, arbiter="three-class", horizon=horizon, seed=seed,
        warmup_cycles=0,
    )
    result = GLBurstResult(l_max=gb_packet_flits)
    for src in range(n_gl):
        if bursts[src] == 0:
            result.cases.append(
                BurstCaseResult(src, bounds[src], budgets[src], 0, 0)
            )
            continue
        stats = sim_result.stats.flow_stats(FlowId(src, 0, TrafficClass.GL))
        max_wait = stats.waiting.maximum if stats.waiting.count else 0
        result.cases.append(
            BurstCaseResult(
                input_port=src,
                latency_bound=bounds[src],
                budget_packets=budgets[src],
                burst_packets=bursts[src],
                max_waiting=max_wait,
            )
        )
    return result


def main(fast: bool = False) -> Report:
    """CLI entry."""
    result = run_gl_burst(repeats=5 if fast else 20)
    return Report(result.format(), (result.claim(),))
