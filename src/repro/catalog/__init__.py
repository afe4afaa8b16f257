"""Durable cross-invocation result cataloguing for sweep experiments.

The run catalog is the sweep-result store opened to be kept: every
completed sweep point, from every run, lives under its content key with
a verified envelope and integrity hash, and every ``--catalog`` run
serves already-proven points from the cache instead of recomputing them
— with a bit-identity assertion on every hit, so a poisoned entry raises
a *catalog determinism violation* rather than silently corrupting
results. The run journal is the same store opened fresh; both share one
file format (:mod:`repro.resilience.store`). See ``docs/CATALOG.md``.

Import discipline: this package imports only the standard library,
:mod:`repro.errors`, and :mod:`repro.resilience` (which implements the
store); ``repro.parallel`` imports *it*.

``python -m repro.catalog hash|diff|stats|compact`` inspects, compares
and maintains store files, journals and catalogs alike (see
:mod:`~repro.catalog.__main__`).
"""

from ..resilience.store import CATALOG_SCHEMA_VERSION, RunCatalog, entry_integrity

__all__ = [
    "CATALOG_SCHEMA_VERSION",
    "RunCatalog",
    "entry_integrity",
]
