"""Section 4.1 — wire-level model verification.

"To verify the correctness of SSVC, we further modeled the behavior of each
wire, multiplexer, and sense amp ... We tested this program with all input
combinations of thermometer code vectors and valid LRG states" and compared
against a true comparison of the values the coarse hardware is specified to
compute. This harness runs the exhaustive sweep at radix 4 (every level
assignment x every LRG order x every request subset x single-GL cases) and
a large randomized sweep at radix 8 and 16 (including multi-GL requests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuit.verification import VerificationReport, verify_exhaustive, verify_random
from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from .claims import Claim, Report, judge

def sweep_specs(fast: bool) -> List[Tuple[str, int, int, int, int]]:
    """The sweeps one run performs: (kind, radix, levels, trials, seed)."""
    specs = [("exhaustive", 3, 3, 0, 0)]
    if not fast:
        specs.append(("exhaustive", 4, 4, 0, 0))
    specs.append(("random", 8, 8, 300 if fast else 3000, 8))
    specs.append(("random", 16, 16, 100 if fast else 1000, 16))
    return specs


def exhaustive_decisions(radix: int, levels: int) -> int:
    """Decisions :func:`verify_exhaustive` checks, in closed form.

    Every level assignment and LRG order, times every non-empty request
    subset with no GL flag (``2**radix - 1``) plus every (GL requester,
    subset containing it) pair (``radix * 2**(radix - 1)``).
    """
    return (
        levels**radix
        * math.factorial(radix)
        * ((2**radix - 1) + radix * 2 ** (radix - 1))
    )


@dataclass
class CircuitVerificationResult:
    """All sweep reports (any mismatch raises before this is built)."""

    reports: List[VerificationReport]

    @property
    def total_trials(self) -> int:
        """Total arbitration decisions checked."""
        return sum(r.trials for r in self.reports)

    def claims(self, fast: bool) -> List[Claim]:
        """One claim per sweep of a ``fast`` (or full) run: exhaustive
        sweeps check exactly the closed-form case count, randomized ones
        every requested trial (any mismatch raises before this point)."""
        trials = {(r.radix, r.levels): r.trials for r in self.reports}
        out = []
        for kind, radix, levels, count, _ in sweep_specs(fast):
            exhaustive = kind == "exhaustive"
            expected = exhaustive_decisions(radix, levels) if exhaustive else count
            got = trials.get((radix, levels))
            out.append(judge(
                f"radix {radix}, {levels} levels: the wire model agrees on "
                + ("every case" if exhaustive else "random multi-GL cases"),
                "§4.1 'all input combinations of thermometer code vectors and "
                "valid LRG states'" if exhaustive else "§4.1",
                [] if got is not None else [f"radix-{radix} sweep"],
                lambda: (got == expected,
                         f"{got:,} decisions, 0 mismatches (expected {expected:,})"),
            ))
        return out

    def format(self) -> str:
        rows = [(r.radix, r.levels, r.trials) for r in self.reports]
        table = format_table(
            ["radix", "levels", "decisions verified"],
            rows,
            title="Section 4.1 wire-model verification (0 mismatches)",
        )
        return table + f"\ntotal: {self.total_trials} decisions"


def _verification_point(point: SweepPoint) -> VerificationReport:
    """Worker: one sweep (exhaustive or randomized), fully point-driven."""
    if point.param("kind") == "exhaustive":
        return verify_exhaustive(
            radix=point.param("radix"), num_levels=point.param("num_levels")
        )
    return verify_random(
        radix=point.param("radix"),
        num_levels=point.param("num_levels"),
        trials=point.param("trials"),
        seed=point.seed,
    )


def run_circuit_verification(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CircuitVerificationResult:
    """Exhaustive small-radix sweep plus randomized larger-radix sweeps.

    Raises:
        SimulationError: wrapping the first :class:`VerificationError`
            disagreement between the wire model and the reference decision
            (none are expected), naming the sweep that failed.
    """
    points = [
        SweepPoint.make(
            i,
            f"verify:{kind}:r{radix}",
            seed=seed,
            kind=kind,
            radix=radix,
            num_levels=num_levels,
            trials=trials,
        )
        for i, (kind, radix, num_levels, trials, seed) in enumerate(
            sweep_specs(fast)
        )
    ]
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    results = executor.map(_verification_point, points)
    return CircuitVerificationResult(reports=[r.value for r in results])


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry."""
    result = run_circuit_verification(fast=fast, jobs=jobs, resilience=resilience)
    return Report(result.format(), tuple(result.claims(fast)))
