"""Table 1 — SSVC storage requirements.

The paper's worst case: a 64x64 switch with 512-bit output buses, 64-byte
flits, 4-flit BE/GL buffers and 4-flit-per-output GB virtual output queues,
an 11-bit auxVC (3 significant + 8 fractional), an 8-bit thermometer code,
an 8-bit Vtick, and a 63-bit LRG row per crosspoint. Expected: 1,056 KB of
buffering + 45 KB of crosspoint state = 1,101 KB (~1.1 MB) total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..config import SwitchConfig, TABLE1_CONFIG
from ..hw.storage import StorageBreakdown, storage_breakdown
from ..metrics.report import format_table
from .claims import Claim, Report

#: Paper's Table 1 anchor values in KB, for the EXPERIMENTS.md comparison.
PAPER_BUFFERING_KB = 1056.0
PAPER_CROSSPOINT_KB = 45.0
PAPER_TOTAL_KB = 1101.0


@dataclass
class Table1Result:
    """Computed breakdown plus paper-anchor deltas."""

    breakdown: StorageBreakdown

    @property
    def buffering_kb(self) -> float:
        """Total input buffering in KB."""
        return self.breakdown.total_buffering / 1024.0

    @property
    def crosspoint_kb(self) -> float:
        """Total crosspoint QoS state in KB."""
        return self.breakdown.total_crosspoint_state / 1024.0

    @property
    def total_kb(self) -> float:
        """Total switch storage in KB."""
        return self.breakdown.total / 1024.0

    def paper_deltas(self) -> List[Tuple[str, float, float]]:
        """(quantity, ours KB, paper KB) rows."""
        return [
            ("input buffering", self.buffering_kb, PAPER_BUFFERING_KB),
            ("crosspoint state", self.crosspoint_kb, PAPER_CROSSPOINT_KB),
            ("total", self.total_kb, PAPER_TOTAL_KB),
        ]

    def claims(self) -> List[Claim]:
        """Each Table 1 total, reproduced to the kilobyte."""
        return [
            Claim(f"{quantity} is {paper:,.0f} KB", "Table 1",
                  math.isclose(ours, paper, rel_tol=1e-6), f"ours {ours:,.1f} KB")
            for quantity, ours, paper in self.paper_deltas()
        ]

    def format(self) -> str:
        """Table 1 as ASCII."""
        rows = [(item, value) for item, value in self.breakdown.rows()]
        detail = format_table(
            ["item", "bytes"],
            rows,
            title="Table 1: SSVC storage (64x64 switch, 512-bit buses)",
            float_format=".1f",
        )
        compare = format_table(
            ["quantity", "ours (KB)", "paper (KB)"],
            self.paper_deltas(),
            title="Paper comparison",
            float_format=".1f",
        )
        return detail + "\n\n" + compare


def run_table1(config: SwitchConfig = TABLE1_CONFIG) -> Table1Result:
    """Compute the Table 1 breakdown (any config; paper's by default)."""
    return Table1Result(breakdown=storage_breakdown(config))


def main(fast: bool = False) -> Report:
    """CLI entry."""
    result = run_table1()
    return Report(result.format(), tuple(result.claims()))
