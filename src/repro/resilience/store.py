"""The sweep-result store behind both the run catalog and the run journal.

Every completed sweep point is stored under its content key
(:func:`~repro.resilience.keys.point_key`) with the envelope the key was
derived from, the value's exact ``repr``, and an integrity hash binding
the two. One file format, one loader, one append path, one compaction
and one verified lookup serve both ways of opening a store:
:class:`RunCatalog` always loads an existing file, so every later run
is served what earlier runs computed; :class:`RunJournal` starts fresh
(its first append atomically replaces any old file) unless it resumes.

File format: newline-delimited JSON. Line one is the header; a ``sweep``
line (id, worker, point count) is written when a sweep the file does not
yet name is registered through :meth:`RunCatalog.register_sweep`;
``entry`` lines carry completed points. Each new entry is one fsync'd
append, and the header (plus any state the file does not yet reflect)
is written through :func:`~repro.resilience.atomic.atomic_write_text`
once, before the first append. A store killed at any instant is
therefore a complete prefix plus at most one torn final line, which the
next open drops. Hits and re-records are checked, never trusted (see
:meth:`RunCatalog.lookup`).

A store is thread-safe (one lock around the index and the append handle)
but not multi-process-safe: worker processes never touch it (the parent
records every result), and a CLI run owns its files for the invocation.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    TypeVar,
    Union,
)

from ..errors import ConfigError, SimulationError
from .atomic import atomic_write_text
from .keys import (
    SweepPointLike,
    point_envelope,
    point_key,
    restorable_repr,
    sweep_id,
)

#: Bumped when the line layout changes incompatibly.
CATALOG_SCHEMA_VERSION = 1

#: Fields each record kind must carry (the loader validates presence).
_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sweep": ("id", "fn", "points"),
    "entry": (
        "key",
        "sweep",
        "fn",
        "index",
        "label",
        "envelope",
        "value_repr",
        "restorable",
        "integrity",
    ),
}

#: A record's identity in a store: ``(kind, sweep id or point key)``.
RecordId = Tuple[str, str]

_Store = TypeVar("_Store", bound="RunCatalog")


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


def _record_id(record: Dict[str, Any]) -> RecordId:
    kind = str(record["kind"])
    return kind, str(record["id"] if kind == "sweep" else record["key"])


def _load(path: Path, name: str) -> Tuple[Dict[RecordId, Dict[str, Any]], bool]:
    """Parse and validate a store file -> (records in file order, salvaged).

    A *final* line that both fails to parse and is unterminated (no
    trailing newline) is a write torn by a crash mid-append: it is dropped
    and ``salvaged`` is True, so the caller rewrites the clean prefix
    before appending. A duplicate record replaces the earlier one in
    place (last wins, first position kept).

    Raises:
        ConfigError: on any other malformed line — a store that does not
            parse must fail loudly, never resume from garbage.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {name} {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"{name} {path} is empty (no header)")
    records: Dict[RecordId, Dict[str, Any]] = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines) and lineno > 1 and not text.endswith("\n"):
                return records, True
            raise ConfigError(
                f"{name} {path}:{lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise ConfigError(
                f"{name} {path}:{lineno}: expected an object with 'kind'"
            )
        kind = record["kind"]
        if lineno == 1:
            if kind != "header":
                raise ConfigError(f"{name} {path}: first line must be the header")
            if record.get("schema_version") != CATALOG_SCHEMA_VERSION:
                raise ConfigError(
                    f"{name} {path}: schema_version "
                    f"{record.get('schema_version')} != {CATALOG_SCHEMA_VERSION}"
                )
            continue
        if kind not in _FIELDS:
            raise ConfigError(
                f"{name} {path}:{lineno}: unknown record kind {kind!r}"
            )
        for field in _FIELDS[kind]:
            if field not in record:
                raise ConfigError(
                    f"{name} {path}:{lineno}: {kind} record missing {field!r}"
                )
        records[_record_id(record)] = record
    return records, False


class RunCatalog:
    """Content-addressed store of completed sweep points, across runs.

    Args:
        path: store file. Loaded if it exists (salvaging at most one
            torn final line), created on first append otherwise.

    Attributes:
        hits: lookups served from the store this session.
        misses: lookups that found no servable entry this session.
        appends: new entries durably appended this session.
    """

    #: Names the store in errors ("catalog determinism violation").
    _name = "catalog"

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._lock = threading.Lock()
        #: every sweep and entry record, in file (append) order
        self._records: Dict[RecordId, Dict[str, Any]] = {}
        self._fh: Optional[TextIO] = None
        #: True when the on-disk bytes don't reflect the in-memory state
        #: (a fresh store, or a salvaged torn tail) and must be rewritten
        #: atomically before the first append.
        self._stale_on_disk = True
        self.hits = 0
        self.misses = 0
        self.appends = 0
        if self._loads_existing():
            self._records, self._stale_on_disk = _load(self._path, self._name)

    def _loads_existing(self) -> bool:
        """Whether opening loads the file — the one way the stores differ."""
        return self._path.exists()

    # ------------------------------------------------------------------ state

    @property
    def path(self) -> str:
        """The store file path, as given."""
        return str(self._path)

    @property
    def entry_count(self) -> int:
        """Entries currently stored (all sweeps, all sessions)."""
        return sum(1 for kind, _ in self._records if kind == "entry")

    def _entries(self) -> List[Dict[str, Any]]:
        return [r for (kind, _), r in self._records.items() if kind == "entry"]

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the store for CLIs and reports."""
        with self._lock:
            entries = self._entries()
            functions: Dict[str, int] = {}
            for entry in entries:
                fn = str(entry["fn"])
                functions[fn] = functions.get(fn, 0) + 1
            return {
                "path": str(self._path),
                "entries": len(entries),
                "restorable": sum(1 for entry in entries if entry["restorable"]),
                "functions": functions,
                "hits": self.hits,
                "misses": self.misses,
                "appends": self.appends,
            }

    # ----------------------------------------------------------------- lookup

    def lookup(self, fn_name: str, point: SweepPointLike) -> Tuple[bool, Any]:
        """``(True, value)`` when the point is stored and verified.

        ``(False, None)`` means a genuine miss (never stored, or the
        recorded value's repr is not a Python literal, so it must be
        recomputed — the recomputation still gets the bit-identity assert
        in :meth:`record`).

        Raises:
            SimulationError: **determinism violation** — the stored
                envelope does not match the live point, the integrity
                hash does not match the stored bytes, or the restored
                value does not round-trip to the recorded repr. A
                poisoned entry is never served silently.
        """
        with self._lock:
            key = point_key(fn_name, point)
            entry = self._records.get(("entry", key))
            if entry is None:
                self.misses += 1
                return False, None
            self._verify(entry, point_envelope(fn_name, point))
            if not entry["restorable"]:
                self.misses += 1
                return False, None
            value = ast.literal_eval(str(entry["value_repr"]))
            if repr(value) != entry["value_repr"]:
                raise SimulationError(
                    f"{self._name} determinism violation: entry {key} "
                    f"({entry['label']!r}) does not round-trip: stored repr "
                    f"{str(entry['value_repr'])[:200]!r} restored to "
                    f"{repr(value)[:200]!r}. The {self._name} {self._path} "
                    "cannot be trusted; delete the entry or the file."
                )
            self.hits += 1
            return True, value

    def _verify(self, entry: Dict[str, Any], envelope: str) -> None:
        """Bit-identity checks every hit and re-record must pass."""
        if entry["envelope"] != envelope:
            raise SimulationError(
                f"{self._name} determinism violation: entry {entry['key']} "
                f"({entry['label']!r}) hash-matches a different envelope.\n"
                f"  stored:    {str(entry['envelope'])[:200]}\n"
                f"  submitted: {envelope[:200]}\n"
                f"The {self._name} {self._path} holds a mutated or colliding "
                "entry; delete it before resubmitting."
            )
        expected = entry_integrity(str(entry["envelope"]), str(entry["value_repr"]))
        if entry["integrity"] != expected:
            raise SimulationError(
                f"{self._name} determinism violation: entry {entry['key']} "
                f"({entry['label']!r}) failed its integrity check "
                f"(stored {entry['integrity']}, recomputed {expected}) — "
                f"the entry was mutated on disk. The {self._name} "
                f"{self._path} cannot be trusted; delete the entry or the file."
            )

    # -------------------------------------------------------------- recording

    def register_sweep(
        self,
        fn_name: str,
        points: Sequence[SweepPointLike],
        identity: Optional[str] = None,
    ) -> str:
        """Name a sweep; returns its stable id.

        The sweep's line is appended (fsync'd) only when the file does not
        already hold it, so a fresh journal names its sweeps before any
        point completes, and re-running a stored sweep appends nothing.
        ``identity`` is the sweep's id when the caller already derived it
        (:func:`~repro.resilience.keys.sweep_id` of the point keys).
        """
        if identity is None:
            identity = sweep_id(fn_name, [point_key(fn_name, p) for p in points])
        with self._lock:
            if ("sweep", identity) not in self._records:
                record = {
                    "kind": "sweep",
                    "id": identity,
                    "fn": fn_name,
                    "points": len(points),
                }
                self._append(record)
                self._records[_record_id(record)] = record
        return identity

    # Positional-only: RunJournal.record takes (sweep, key, point, value).
    def record(
        self, fn_name: str, sweep: str, point: SweepPointLike, value: Any, /
    ) -> bool:
        """Store one completed point; True when a new entry was appended.

        Re-recording an existing key is the cross-run determinism assert:
        the envelope and the value repr must both match the stored entry
        bit for bit (returns False — nothing new to store).

        Raises:
            SimulationError: **determinism violation** when the
                re-recorded value differs from the stored one, or the
                existing entry fails verification.
        """
        return self._store(fn_name, sweep, point, value)

    def _store(
        self, fn_name: str, sweep: str, point: SweepPointLike, value: Any
    ) -> bool:
        with self._lock:
            key = point_key(fn_name, point)
            envelope = point_envelope(fn_name, point)
            value_repr, restorable = restorable_repr(value)
            existing = self._records.get(("entry", key))
            if existing is not None:
                self._verify(existing, envelope)
                if existing["value_repr"] != value_repr:
                    raise SimulationError(
                        f"{self._name} determinism violation: point "
                        f"{point.label!r} (key {key}) re-executed to a "
                        "different value.\n"
                        f"  stored:     {str(existing['value_repr'])[:200]}\n"
                        f"  recomputed: {value_repr[:200]}\n"
                        f"The {self._name} {self._path} does not describe "
                        "this sweep; delete it or fix the nondeterminism."
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
            self._records[("entry", key)] = entry
            self.appends += 1
            return True

    # -------------------------------------------------------------- file I/O

    def _append(self, record: Dict[str, Any]) -> None:
        """Durably append one record line: one write, one fsync.

        Callers add ``record`` to the in-memory state only after this
        returns: the first append may atomically rewrite that state, and
        a pre-inserted record would then be written twice.
        """
        if self._fh is None:
            if self._stale_on_disk:
                self._rewrite()
                self._stale_on_disk = False
            self._fh = self._path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _rewrite(self) -> None:
        """Write the whole store atomically (the old file survives a crash)."""
        header = {
            "kind": "header",
            "schema_version": CATALOG_SCHEMA_VERSION,
            "tool": "repro-catalog",
        }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(record) for record in self._records.values())
        atomic_write_text(self._path, "\n".join(lines) + "\n")

    def compact(self) -> int:
        """Atomically rewrite the file to one canonical line per record.

        Folds whatever the append-only format accumulated — salvaged torn
        tails, duplicate records from concatenated files (the loader is
        last-wins) — into exactly one header plus one line per sweep and
        per entry, in first-append order: byte-identical to what an
        uninterrupted writer would have produced. Returns the bytes
        reclaimed; lookups and :func:`journal_hashes` are unchanged.
        """
        with self._lock:
            self._close_locked()
            before = self._path.stat().st_size if self._path.exists() else 0
            self._rewrite()
            self._stale_on_disk = False
            after = self._path.stat().st_size
            return max(0, before - after)

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self: _Store) -> _Store:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RunJournal(RunCatalog):
    """A run catalog opened fresh: the crash-safe checkpoint of one run.

    Args:
        path: journal file. With ``resume=False`` a fresh journal is
            started (an existing file is replaced — atomically — on the
            first append, which registering a sweep makes). With ``resume=True`` the file must exist and
            load; its points are served as verified hits.

    One journal instance must not be shared between concurrently running
    executors (sweeps within one CLI invocation run sequentially, which
    is the supported sharing).
    """

    _name = "journal"

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.resume = resume
        super().__init__(path)

    def _loads_existing(self) -> bool:
        if self.resume and not self._path.exists():
            raise ConfigError(f"cannot resume: journal {self._path} does not exist")
        return self.resume

    def record(
        self, sweep: str, key: str, point: SweepPointLike, value: Any
    ) -> bool:
        """Checkpoint one point of a registered sweep (fsync'd before returning).

        The worker name comes from the sweep's registration, and ``key``
        must be the point's content key under it. Returns True when a new
        entry was appended; re-recording a stored key is the determinism
        assert of :meth:`RunCatalog.record`.

        Raises:
            ConfigError: ``sweep`` was never registered or ``key`` is not
                the point's key.
            SimulationError: **journal determinism violation** when a
                re-executed point's value differs from the journaled one.
        """
        with self._lock:
            registered = self._records.get(("sweep", sweep))
        if registered is None:
            raise ConfigError(f"journal {self._path}: unknown sweep {sweep!r}")
        fn_name = str(registered["fn"])
        if key != point_key(fn_name, point):
            raise ConfigError(
                f"journal {self._path}: key {key} is not the content key of "
                f"point {point.label!r} under {fn_name}"
            )
        return self._store(fn_name, sweep, point, value)


def journal_hashes(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Per-sweep merged digests of a store file's recorded values.

    Works on any store file, journal or catalog. For each ``sweep`` line:
    the sweep's entries ordered by index, digest = SHA-256 over
    ``repr(value) + NUL`` per point — exactly
    :func:`repro.parallel.result_hash` of the sweep's ordered payloads, so
    a resumed or cached run's hash can be diffed directly against an
    uninterrupted run's.
    """
    records, _ = _load(Path(path), "store")
    entries = [r for (kind, _), r in records.items() if kind == "entry"]
    out: Dict[str, Dict[str, Any]] = {}
    for (kind, identity), sweep_record in records.items():
        if kind != "sweep":
            continue
        members = sorted(
            (entry for entry in entries if entry["sweep"] == identity),
            key=lambda entry: int(entry["index"]),
        )
        digest = hashlib.sha256()
        for entry in members:
            digest.update(str(entry["value_repr"]).encode("utf-8"))
            digest.update(b"\x00")
        out[identity] = {
            "points": len(members),
            "expected_points": int(sweep_record["points"]),
            "complete": len(members) == int(sweep_record["points"]),
            "hash": digest.hexdigest(),
        }
    return out
