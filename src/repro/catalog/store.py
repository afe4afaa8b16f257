"""The run catalog: a durable, cross-invocation sweep-result cache.

A :class:`~repro.resilience.RunJournal` checkpoints *one* run; the
catalog remembers **every** run. Each completed sweep point is stored
under its content key (:func:`repro.resilience.point_key` — a blake2b
digest of the worker's dotted name plus the point's index, label, seed,
and params), together with the full envelope repr the key was derived
from, the value's exact ``repr``, and an integrity hash binding the two.
Any later invocation — a resumed CLI run, a rerun after a crash, a
different job count — that submits an already-catalogued point gets the
recorded value back instantly instead of recomputing it.

Cache hits are *checked*, never trusted: a lookup re-derives the
envelope from the live point and asserts it matches the stored envelope
character for character, re-derives the integrity hash over
``envelope + NUL + value_repr``, and round-trips the restored value's
repr — any mismatch raises ``SimulationError`` naming a **catalog
determinism violation** instead of silently serving a poisoned entry.
Re-recording a key asserts the same bit-identity, so a nondeterministic
worker can never overwrite history.

File format mirrors the journal: newline-delimited JSON, one fsync'd
append per new entry, a header line first, atomic full rewrites
(write-temp + fsync + rename) for creation and :meth:`RunCatalog.compact`,
and torn-final-line salvage on load — a catalog killed mid-append is
always openable. Unlike the journal there is no ``resume`` flag: an
existing file is *always* loaded (the whole point is surviving
invocations), a missing one is created.

The store is thread-safe (one lock around the index and the append
handle), so a caller may read :meth:`RunCatalog.stats` from one thread
while another records; it is **not** multi-process-safe — worker
processes never touch it (the parent records every result), and a CLI
run owns its catalog file for the duration of the invocation.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Tuple, Union

from ..errors import ConfigError, SimulationError
from ..resilience.atomic import atomic_write_text
from ..resilience.journal import (
    SweepPointLike,
    point_envelope,
    point_key,
    restorable_repr,
)

#: Bumped when the catalog line layout changes incompatibly.
CATALOG_SCHEMA_VERSION = 1

#: Fields every entry record must carry (the parser validates presence).
_ENTRY_FIELDS = (
    "key",
    "sweep",
    "fn",
    "index",
    "label",
    "envelope",
    "value_repr",
    "restorable",
    "integrity",
)


def entry_integrity(envelope: str, value_repr: str) -> str:
    """Content hash binding an entry's envelope to its recorded value.

    blake2b over ``envelope + NUL + value_repr`` — recomputed on every
    lookup, so mutating either half of an entry on disk (the poisoned
    cache case) is detected before the value is ever served.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(envelope.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(value_repr.encode("utf-8"))
    return digest.hexdigest()


class RunCatalog:
    """Content-addressed store of completed sweep points, across runs.

    Args:
        path: catalog file. Loaded if it exists (salvaging at most one
            torn final line), created on first append otherwise.

    Attributes:
        hits: lookups served from the catalog this session.
        misses: lookups that found no servable entry this session.
        appends: new entries durably appended this session.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._lock = threading.Lock()
        #: point key -> parsed entry record
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._fh: Optional[TextIO] = None
        #: True when the on-disk bytes don't reflect the in-memory state
        #: (fresh catalog, or a salvaged torn tail) and must be rewritten
        #: atomically before the first append.
        self._stale_on_disk = True
        self.hits = 0
        self.misses = 0
        self.appends = 0
        if self._path.exists():
            self._load()

    # ------------------------------------------------------------------ state

    @property
    def path(self) -> str:
        """The catalog file path, as given."""
        return str(self._path)

    @property
    def entry_count(self) -> int:
        """Entries currently catalogued (all sweeps, all sessions)."""
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the store for CLIs and reports."""
        with self._lock:
            restorable = sum(
                1 for entry in self._entries.values() if entry["restorable"]
            )
            functions: Dict[str, int] = {}
            for entry in self._entries.values():
                fn = str(entry["fn"])
                functions[fn] = functions.get(fn, 0) + 1
            return {
                "path": str(self._path),
                "entries": len(self._entries),
                "restorable": restorable,
                "functions": functions,
                "hits": self.hits,
                "misses": self.misses,
                "appends": self.appends,
            }

    # ----------------------------------------------------------------- lookup

    def lookup(self, fn_name: str, point: SweepPointLike) -> Tuple[bool, Any]:
        """``(True, value)`` when the point is catalogued and verified.

        ``(False, None)`` means a genuine miss (never catalogued, or the
        recorded value's repr is not a Python literal, so it must be
        recomputed — the recomputation still gets the bit-identity assert
        in :meth:`record`).

        Raises:
            SimulationError: **catalog determinism violation** — the
                stored envelope does not match the live point, the
                integrity hash does not match the stored bytes, or the
                restored value does not round-trip to the recorded repr.
                A poisoned entry is never served silently.
        """
        with self._lock:
            key = point_key(fn_name, point)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return False, None
            envelope = point_envelope(fn_name, point)
            self._verify(entry, envelope)
            if not entry["restorable"]:
                self.misses += 1
                return False, None
            value = ast.literal_eval(str(entry["value_repr"]))
            if repr(value) != entry["value_repr"]:
                raise SimulationError(
                    f"catalog determinism violation: entry {key} "
                    f"({entry['label']!r}) does not round-trip: stored repr "
                    f"{str(entry['value_repr'])[:200]!r} restored to "
                    f"{repr(value)[:200]!r}. The catalog {self._path} cannot "
                    "be trusted; delete the entry or the file."
                )
            self.hits += 1
            return True, value

    def _verify(self, entry: Dict[str, Any], envelope: str) -> None:
        """Bit-identity checks every hit and re-record must pass."""
        if entry["envelope"] != envelope:
            raise SimulationError(
                f"catalog determinism violation: entry {entry['key']} "
                f"({entry['label']!r}) hash-matches a different envelope.\n"
                f"  catalogued: {str(entry['envelope'])[:200]}\n"
                f"  submitted:  {envelope[:200]}\n"
                f"The catalog {self._path} holds a mutated or colliding "
                "entry; delete it before resubmitting."
            )
        expected = entry_integrity(str(entry["envelope"]), str(entry["value_repr"]))
        if entry["integrity"] != expected:
            raise SimulationError(
                f"catalog determinism violation: entry {entry['key']} "
                f"({entry['label']!r}) failed its integrity check "
                f"(stored {entry['integrity']}, recomputed {expected}) — "
                f"the entry was mutated on disk. The catalog {self._path} "
                "cannot be trusted; delete the entry or the file."
            )

    # -------------------------------------------------------------- recording

    def record(
        self, fn_name: str, sweep: str, point: SweepPointLike, value: Any
    ) -> bool:
        """Catalogue one completed point; True when a new entry was appended.

        Re-recording an existing key is the cross-run determinism assert:
        the envelope and the value repr must both match the catalogued
        entry bit for bit (returns False — nothing new to store).

        Raises:
            SimulationError: **catalog determinism violation** when the
                re-recorded value differs from the catalogued one, or the
                existing entry fails verification.
        """
        with self._lock:
            key = point_key(fn_name, point)
            envelope = point_envelope(fn_name, point)
            value_repr, restorable = restorable_repr(value)
            existing = self._entries.get(key)
            if existing is not None:
                self._verify(existing, envelope)
                if existing["value_repr"] != value_repr:
                    raise SimulationError(
                        f"catalog determinism violation: point {point.label!r} "
                        f"(key {key}) re-executed to a different value.\n"
                        f"  catalogued: {str(existing['value_repr'])[:200]}\n"
                        f"  recomputed: {value_repr[:200]}\n"
                        f"The catalog {self._path} does not describe this "
                        "sweep; delete it or fix the nondeterminism."
                    )
                return False
            entry = {
                "kind": "entry",
                "key": key,
                "sweep": sweep,
                "fn": fn_name,
                "index": point.index,
                "label": point.label,
                "envelope": envelope,
                "value_repr": value_repr,
                "restorable": restorable,
                "integrity": entry_integrity(envelope, value_repr),
            }
            self._append(entry)
            self._entries[key] = entry
            self.appends += 1
            return True

    # -------------------------------------------------------------- file I/O

    def compact(self) -> int:
        """Atomically rewrite the file to one canonical line per key.

        Folds whatever the append-only format accumulated — salvaged torn
        tails, duplicate keys from concatenated catalogs (the parser is
        last-wins) — into exactly one header plus one line per entry, via
        write-temp + fsync + rename. Returns the bytes reclaimed.
        """
        with self._lock:
            self._close_locked()
            before = self._path.stat().st_size if self._path.exists() else 0
            self._rewrite()
            self._stale_on_disk = False
            after = self._path.stat().st_size
            return max(0, before - after)

    def close(self) -> None:
        """Flush and close the append handle (safe to call repeatedly)."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunCatalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _append(self, entry: Dict[str, Any]) -> None:
        """Durably append one entry line (fsync before returning)."""
        if self._fh is None:
            if self._stale_on_disk:
                self._rewrite()
                self._stale_on_disk = False
            self._fh = self._path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _rewrite(self) -> None:
        """Write the full catalog atomically (old file survives a crash)."""
        lines = [
            json.dumps(
                {
                    "kind": "header",
                    "schema_version": CATALOG_SCHEMA_VERSION,
                    "tool": "repro-catalog",
                }
            )
        ]
        for entry in self._entries.values():
            lines.append(json.dumps(entry))
        atomic_write_text(self._path, "\n".join(lines) + "\n")

    # --------------------------------------------------------------- loading

    def _load(self) -> None:
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read catalog {self._path}: {exc}") from exc
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ConfigError(f"catalog {self._path} is empty (no header)")
        salvaged = False
        entries: Dict[str, Dict[str, Any]] = {}
        for lineno, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines) and lineno > 1 and not text.endswith("\n"):
                    # A write torn by a crash mid-append: drop it and
                    # rewrite the clean prefix before the next append.
                    salvaged = True
                    break
                raise ConfigError(
                    f"catalog {self._path}:{lineno} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise ConfigError(
                    f"catalog {self._path}:{lineno}: expected an object with 'kind'"
                )
            kind = record["kind"]
            if lineno == 1:
                if kind != "header":
                    raise ConfigError(
                        f"catalog {self._path}: first line must be the header"
                    )
                if record.get("schema_version") != CATALOG_SCHEMA_VERSION:
                    raise ConfigError(
                        f"catalog {self._path}: schema_version "
                        f"{record.get('schema_version')} != {CATALOG_SCHEMA_VERSION}"
                    )
                continue
            if kind != "entry":
                raise ConfigError(
                    f"catalog {self._path}:{lineno}: unknown record kind {kind!r}"
                )
            for fieldname in _ENTRY_FIELDS:
                if fieldname not in record:
                    raise ConfigError(
                        f"catalog {self._path}:{lineno}: entry missing {fieldname!r}"
                    )
            entries[str(record["key"])] = record
        self._entries = entries
        self._stale_on_disk = salvaged
