"""Paper claims and the report every artifact returns.

Each artifact judges the paper's claims on the evidence it just produced
and returns a :class:`Report`; ``repro-exp`` prints it and exits 1 when
a claim fails. This module needs only the table formatter, so the
closed-form artifacts (Tables 1-2) load neither numpy nor a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..metrics.report import format_table


@dataclass(frozen=True)
class Claim:
    """One paper claim, judged on the evidence an artifact just produced.

    ``ref`` cites the paper (a section or a short quote); ``holds`` is
    ``None`` when a salvage run left the evidence out, so the claim is
    skipped instead of judged.
    """

    claim: str
    ref: str
    holds: Optional[bool]
    evidence: str

    @property
    def verdict(self) -> str:
        return "skipped" if self.holds is None else "yes" if self.holds else "NO"


Verdict = Tuple[bool, str]


def judge(
    claim: str, ref: str, missing: Sequence[str], verdict: Callable[[], Verdict]
) -> Claim:
    """Judge a claim with ``verdict() -> (holds, evidence)``, or skip it if
    ``missing`` names evidence a salvage run left out."""
    if missing:
        return Claim(claim, ref, None,
                     f"no evidence: {', '.join(missing)} missing (salvaged)")
    return Claim(claim, ref, *verdict())


def near(label: str, value: float, target: float, tol: float) -> Verdict:
    """A point claim: ``value`` within ``tol`` of ``target``."""
    return (abs(value - target) <= tol,
            f"{label} {value:.4f} vs {target:.4f} (tol {tol:g})")


def format_claims(claims: Sequence[Claim]) -> str:
    """The claims table every artifact report ends with."""
    return format_table(
        ["claim", "paper", "holds", "evidence"],
        [(c.claim, c.ref, c.verdict, c.evidence) for c in claims],
        title="paper claims",
    )


@dataclass(frozen=True)
class Report:
    """An artifact's ``main`` result: its rendered evidence and the claims
    judged on it (``repro-exp`` exits 1 when one fails)."""

    body: str
    claims: Tuple[Claim, ...]

    @property
    def failed(self) -> List[Claim]:
        return [c for c in self.claims if c.holds is False]

    def format(self) -> str:
        return self.body + "\n\n" + format_claims(self.claims)
