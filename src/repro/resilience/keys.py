"""Content addressing for sweep points: keys, envelopes, sweep ids, reprs.

Every sweep-result store (:mod:`repro.resilience.store`) files a completed
point under :func:`point_key` — a digest of the worker's dotted name plus
the point's index, label, seed, and params — so two runs of the same
sweep derive the same keys in any process, which is the whole resume and
cache-hit contract. Values are stored as their exact ``repr``
(:func:`restorable_repr`): the executor's merged ``result_hash`` is
defined over ``repr`` (floats round-trip exactly), so a restored value
hashes identically by construction.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Any, Protocol, Sequence, Tuple


class SweepPointLike(Protocol):
    """The envelope fields a point key is derived from.

    Structural (not an import of :class:`repro.parallel.SweepPoint`) so the
    resilience package never imports ``repro.parallel`` — the executor
    imports *us*, and keeping the edge one-directional avoids a cycle.
    """

    @property
    def index(self) -> int: ...

    @property
    def label(self) -> str: ...

    @property
    def seed(self) -> int: ...

    @property
    def params(self) -> Tuple[Tuple[str, Any], ...]: ...


def worker_name(fn: object) -> str:
    """Stable dotted name for a worker callable (functions and instances).

    Instances (e.g. the replication adapter) key by their *class*, never
    by ``repr`` — object reprs carry memory addresses, which would change
    the key on every run and silently defeat resume.
    """
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not isinstance(qualname, str):
        qualname = type(fn).__qualname__
        module = type(fn).__module__
    return f"{module}.{qualname}"


def point_envelope(fn_name: str, point: SweepPointLike) -> str:
    """The exact repr payload a point's content key hashes.

    Exposed (rather than inlined in :func:`point_key`) because a store
    keeps this string verbatim next to each value: a hit re-derives the
    envelope from the live point and asserts it matches the stored one
    character for character, so an entry whose envelope was mutated on
    disk can never be served silently.
    """
    return repr((fn_name, point.index, point.label, point.seed, point.params))


def point_key(fn_name: str, point: SweepPointLike) -> str:
    """Content key of one sweep point under one worker function.

    A pure function of everything that determines the point's result —
    the worker's dotted name plus the envelope's index, label, seed, and
    params (all reprs are deterministic: params are primitives or frozen
    dataclasses). Two runs of the same sweep derive the same keys in any
    process, which is the whole resume contract.
    """
    payload = point_envelope(fn_name, point)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def sweep_id(fn_name: str, keys: Sequence[str]) -> str:
    """Stable id for a sweep: worker name + digest of its ordered keys."""
    digest = hashlib.blake2b(
        "\n".join(keys).encode("utf-8"), digest_size=6
    ).hexdigest()
    return f"{fn_name}#{digest}"


def restorable_repr(value: Any) -> Tuple[str, bool]:
    """``(repr, restorable)`` — restorable iff the repr literal-evals back.

    ``ast.literal_eval`` covers every payload built from primitives,
    tuples, lists, dicts, and sets; the round-trip repr comparison proves
    bit-exactness (floats round-trip exactly through repr).
    """
    text = repr(value)
    try:
        restored = ast.literal_eval(text)
    except (ValueError, SyntaxError, MemoryError, RecursionError):
        return text, False
    return text, repr(restored) == text
