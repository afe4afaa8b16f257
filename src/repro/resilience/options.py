"""The resilience bundle a CLI builds once and threads through every sweep.

``repro-exp`` translates its ``--retries / --point-timeout /
--on-failure / --journal / --resume / --catalog`` flags into one
:class:`ResilienceOptions` and pass it down through the experiment
``run_*`` functions into every :class:`repro.parallel.SweepExecutor` the
invocation creates. The bundle carries the shared journal (one file can
checkpoint all of an experiment's sweeps), the retry policy, the failure
policy, an optional probe for ``resilience.*`` counters, and accumulates
each sweep's :class:`~repro.resilience.outcome.SweepOutcome` so the CLI
can print a single resilience section at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from .outcome import SweepOutcome
from .policy import FailurePolicy, RetryPolicy
from .store import RunCatalog, RunJournal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..obs.probe import Probe


@dataclass
class ResilienceOptions:
    """Everything the executor needs to run a sweep resiliently.

    Attributes:
        retry: retry/timeout/backoff budget (default: no retries, no
            timeout).
        on_failure: ``FAIL_FAST`` (default) or ``SALVAGE``.
        journal: shared checkpoint store, or None to run unjournaled.
        catalog: durable cross-invocation result cache
            (:class:`repro.catalog.RunCatalog`), or None. Catalogued
            points are served as verified cache hits; newly computed
            points are catalogued for every future run.
        probe: sink for ``resilience.*`` / ``catalog.*`` counters and
            trace events; None falls back to the executor's ambient probe.
        outcomes: every sweep's outcome, appended in execution order —
            the CLI reads this after the experiment returns.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    on_failure: FailurePolicy = FailurePolicy.FAIL_FAST
    journal: Optional[RunJournal] = None
    catalog: Optional[RunCatalog] = None
    probe: "Optional[Probe]" = None
    outcomes: List[SweepOutcome] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when any recorded sweep has holes or was cancelled."""
        return any(
            outcome.failures or outcome.cancelled for outcome in self.outcomes
        )

    def summary_lines(self) -> List[str]:
        """Concatenated per-sweep summaries for the CLI resilience section."""
        lines: List[str] = []
        for outcome in self.outcomes:
            lines.extend(outcome.summary_lines())
        return lines
