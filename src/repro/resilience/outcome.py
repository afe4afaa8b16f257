"""What a resilient sweep actually produced: results, holes, and history.

Under ``FailurePolicy.FAIL_FAST`` a sweep either returns every point or
raises; there is nothing to summarize. Under ``SALVAGE`` — and whenever a
journal, retries, or timeouts are in play — the interesting output is
richer than a result list: which points were restored from the journal,
which were retried and how often, which timed out, and which ended as
explicit holes. :class:`SweepOutcome` carries all of that, and its
:meth:`~SweepOutcome.summary_lines` rendering is what the CLIs print as
the report's resilience section — partial results are never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..parallel.envelope import PointResult


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that exhausted its retry budget.

    Attributes:
        index: the point's sweep index (where the hole is).
        label: the point's human-readable label.
        attempts: total attempts made (1 + retries used).
        kind: failure class — ``error`` (the point raised), ``timeout``
            (the watchdog killed it), ``worker-died`` (the worker process
            vanished without reporting), or ``chaos`` (injected by the
            ``REPRO_CHAOS_FAIL_LABEL`` test hook).
        detail: the last attempt's error text (traceback for ``error``).
    """

    index: int
    label: str
    attempts: int
    kind: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (detail truncated to keep artifacts bounded)."""
        return {
            "index": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "kind": self.kind,
            "detail": self.detail[:2000],
        }


@dataclass
class SweepOutcome:
    """Full accounting of one executor run.

    Attributes:
        sweep: the sweep id (:func:`~repro.resilience.sweep_id` of the
            worker name and the ordered point keys).
        total_points: points the caller asked for.
        results: completed points in original order — **with holes**: a
            failed point is simply absent (its index appears in
            ``failures`` instead).
        failures: points that exhausted their retry budget, in point order.
        resumed: points restored from the journal without re-execution.
        cache_hits: points served from the run catalog without
            re-execution.
        retried: retry attempts performed (not points — a point retried
            twice counts 2).
        timeouts: attempts killed by the per-point watchdog.
        cancelled: True when SIGINT/SIGTERM drained the sweep early; the
            missing points are neither results nor failures.
        journal_path: where completed points were checkpointed, if
            journaling was on.
        catalog_path: the durable result cache in play, if one was
            attached (the daemon's own catalog for remote execution).
        notes: human-readable caveats (serial watchdog not enforced, ...).
    """

    sweep: str
    total_points: int
    results: "List[PointResult]" = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)
    resumed: int = 0
    cache_hits: int = 0
    retried: int = 0
    timeouts: int = 0
    cancelled: bool = False
    journal_path: Optional[str] = None
    catalog_path: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Points with a result (computed this run or journal-restored)."""
        return len(self.results)

    @property
    def complete(self) -> bool:
        """True when every requested point has a result."""
        return self.completed == self.total_points

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (results themselves stay in the journal)."""
        return {
            "sweep": self.sweep,
            "total_points": self.total_points,
            "completed": self.completed,
            "resumed": self.resumed,
            "cache_hits": self.cache_hits,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "journal": self.journal_path,
            "catalog": self.catalog_path,
            "failures": [failure.to_dict() for failure in self.failures],
            "notes": list(self.notes),
        }

    def summary_lines(self) -> List[str]:
        """The resilience section the CLIs print — one line per fact."""
        lines = [
            f"sweep {self.sweep}: {self.completed}/{self.total_points} points"
            f" ({self.resumed} resumed, {self.cache_hits} cached,"
            f" {self.retried} retried, {self.timeouts} timeouts)"
        ]
        if self.cancelled:
            lines.append(
                "CANCELLED before completion — journal is resumable"
                if self.journal_path
                else "CANCELLED before completion"
            )
        for failure in self.failures:
            first = failure.detail.strip().splitlines()
            head = first[-1] if first else ""
            lines.append(
                f"FAILED {failure.label} (point {failure.index}) after "
                f"{failure.attempts} attempt(s) [{failure.kind}]: {head}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.journal_path is not None:
            lines.append(f"journal: {self.journal_path}")
        if self.catalog_path is not None:
            lines.append(
                f"catalog: {self.catalog_path} ({self.cache_hits} cache hits)"
            )
        return lines
