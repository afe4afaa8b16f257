"""Table 2 — switch frequency with and without SSVC.

The analytic timing model (see :mod:`repro.hw.timing`) sweeps the paper's
grid — radix {8, 16, 32, 64} x channel width {128, 256, 512} bits — and
reports baseline (SS) and SSVC frequencies plus the slowdown. Reproduction
targets: the worst slowdown is 8.4 % at the 8x8/256-bit point, slowdowns
shrink with radix (fewer lanes -> shallower sense-path mux), and the
radix-64/128-bit baseline sits at the paper's 1.5 GHz anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..hw.timing import TimingModel, frequency_table
from ..metrics.report import format_table
from .claims import Claim, Report, near

#: Paper anchors (Section 4.5 / Section 1).
PAPER_WORST_SLOWDOWN_PCT = 8.4
PAPER_WORST_POINT = (8, 256)
PAPER_BASE_FREQ_GHZ = 1.5
PAPER_BASE_POINT = (64, 128)


@dataclass
class Table2Result:
    """Frequency grid plus the paper-anchor checks."""

    rows: List[Tuple[int, int, float, float, float]]

    @property
    def worst(self) -> Tuple[int, int, float]:
        """(radix, width, slowdown %) of the worst grid point."""
        radix, width, _, _, slow = max(self.rows, key=lambda r: r[4])
        return radix, width, slow

    def frequency(self, radix: int, width: int, ssvc: bool = False) -> float:
        """Look up one grid point's frequency in GHz."""
        for r, w, f_ss, f_ssvc, _ in self.rows:
            if (r, w) == (radix, width):
                return f_ssvc if ssvc else f_ss
        raise KeyError(f"no grid point ({radix}, {width})")

    def claims(self) -> List[Claim]:
        """The worst-slowdown and baseline anchors, and the radix trend."""
        radix, width, slow = self.worst
        base = self.frequency(*PAPER_BASE_POINT)
        slowdown = {(r, w): s for r, w, _, _, s in self.rows}
        widths = sorted({w for _, w, _, _, _ in self.rows})
        return [
            Claim(
                f"worst slowdown is {PAPER_WORST_SLOWDOWN_PCT}% at 8x8, 256-bit",
                "§4.5, Table 2",
                (radix, width) == PAPER_WORST_POINT
                and abs(slow - PAPER_WORST_SLOWDOWN_PCT) <= 0.1,
                f"{slow:.2f}% at {radix}x{radix}, {width}-bit (tol 0.1)",
            ),
            Claim(
                f"the radix-64, 128-bit baseline runs at {PAPER_BASE_FREQ_GHZ} GHz",
                "§1, Table 2", *near("baseline GHz", base, PAPER_BASE_FREQ_GHZ, 0.01),
            ),
            Claim(
                "the slowdown shrinks as radix grows",
                "Table 2",
                all(slowdown[(8, w)] > slowdown[(64, w)] for w in widths),
                ", ".join(
                    f"{w}-bit {slowdown[(8, w)]:.1f}% -> {slowdown[(64, w)]:.1f}%"
                    for w in widths
                ) + " (radix 8 -> 64)",
            ),
        ]

    def format(self) -> str:
        """Table 2 as ASCII."""
        table = format_table(
            ["radix", "width (bits)", "SS (GHz)", "SSVC (GHz)", "slowdown %"],
            self.rows,
            title="Table 2: frequency with and without SSVC (calibrated model)",
            float_format=".2f",
        )
        radix, width, slow = self.worst
        summary = (
            f"worst slowdown: {slow:.1f}% at {radix}x{radix}, {width}-bit "
            f"(paper: {PAPER_WORST_SLOWDOWN_PCT}% at "
            f"{PAPER_WORST_POINT[0]}x{PAPER_WORST_POINT[0]}, {PAPER_WORST_POINT[1]}-bit)"
        )
        return table + "\n" + summary


def run_table2(model: TimingModel = TimingModel()) -> Table2Result:
    """Compute the Table 2 grid."""
    return Table2Result(rows=frequency_table(model))


def main(fast: bool = False) -> Report:
    """CLI entry."""
    result = run_table2()
    return Report(result.format(), tuple(result.claims()))
