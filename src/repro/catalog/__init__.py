"""Durable cross-invocation result cataloguing for sweep experiments.

The catalog promotes the run journal from a per-run checkpoint file into
a production-scale store: every completed sweep point, from every run,
lives under its content key with a verified envelope and integrity hash,
and every ``--catalog`` run serves already-proven points from the cache
instead of recomputing them — with a bit-identity assertion on every
hit, so a poisoned entry raises a *catalog determinism violation* rather
than silently corrupting results. See ``docs/CATALOG.md``.

Import discipline: this package imports only the standard library,
:mod:`repro.errors`, and :mod:`repro.resilience` (for the content keys
and atomic writes); ``repro.parallel`` imports *it*.

``python -m repro.catalog stats|compact`` inspects and maintains catalog
files (see :mod:`~repro.catalog.__main__`).
"""

from .store import CATALOG_SCHEMA_VERSION, RunCatalog, entry_integrity

__all__ = [
    "CATALOG_SCHEMA_VERSION",
    "RunCatalog",
    "entry_integrity",
]
