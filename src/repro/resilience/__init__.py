"""Resilient sweep execution: journaling, retries, salvage, cancellation.

The paper's QoS machinery bounds waiting (Eq. 1), polices abusive flows,
and degrades gracefully under faults; this package applies the same
discipline to the *harness* that reproduces those results. It provides:

* :mod:`~repro.resilience.atomic` — crash-safe file replacement
  (write-temp + fsync + rename) used for every load-bearing artifact;
* :mod:`~repro.resilience.keys` — content keys for sweep points;
* :mod:`~repro.resilience.store` — the one sweep-result store, opened
  as a run journal (fresh, or loaded under ``--resume``) or as a run
  catalog (always loaded), with verified hits and a bit-identity
  assertion on every re-executed point;
* :mod:`~repro.resilience.policy` — per-point timeouts, bounded retries
  with deterministic seeded-jitter backoff, and the
  fail-fast vs salvage :class:`FailurePolicy`;
* :mod:`~repro.resilience.outcome` — explicit accounting of partial
  results (holes are loud, never silent);
* :mod:`~repro.resilience.options` — the bundle CLIs thread through
  experiments into :class:`repro.parallel.SweepExecutor`.

Import discipline: this package imports only the standard library and
:mod:`repro.errors`; ``repro.parallel``, ``repro.obs``, and
``repro.catalog`` import *it* (typing-only back references excepted), so
the dependency edge stays one-directional.

``python -m repro.catalog hash|diff|stats|compact`` inspects, compares
and maintains store files, journals and catalogs alike.
"""

from .._lazy import lazy_exports

#: Where each public name lives (loaded on first access, see
#: :mod:`repro._lazy`): a trace file's atomic rename or the CLI's
#: ``--on-failure`` choices do not load the stores.
_EXPORTS = {
    ".atomic": ("atomic_write_text",),
    ".keys": ("point_envelope", "point_key", "restorable_repr", "sweep_id", "worker_name"),
    ".options": ("ResilienceOptions",),
    ".outcome": ("PointFailure", "SweepOutcome"),
    ".policy": ("FailurePolicy", "RetryPolicy", "backoff_delay"),
    ".store": ("RunJournal", "journal_hashes"),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "FailurePolicy",
    "PointFailure",
    "ResilienceOptions",
    "RetryPolicy",
    "RunJournal",
    "SweepOutcome",
    "atomic_write_text",
    "backoff_delay",
    "journal_hashes",
    "point_envelope",
    "point_key",
    "restorable_repr",
    "sweep_id",
    "worker_name",
]
