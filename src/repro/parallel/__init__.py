"""Deterministic sweep fan-out.

The only sanctioned home for process-based parallelism in this repository
(lint rule RL009 flags ``multiprocessing``/``concurrent.futures`` imports
anywhere else). See ``docs/PARALLELISM.md`` for the executor contract,
the seed-derivation scheme, and the determinism guarantees.
"""

from .._lazy import lazy_exports

#: Where each public name lives (loaded on first access, see
#: :mod:`repro._lazy`): a simulation that only builds sweep points never
#: imports the executor, and with it ``multiprocessing`` and the stores.
_EXPORTS = {
    ".envelope": ("PointResult", "SweepPoint", "result_hash", "spawn_seeds"),
    ".executor": ("CHAOS_ENV", "PointFn", "SweepExecutor"),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "CHAOS_ENV",
    "PointFn",
    "PointResult",
    "SweepExecutor",
    "SweepPoint",
    "result_hash",
    "spawn_seeds",
]
