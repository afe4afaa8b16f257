"""The checkpoint journal: content addressing, resume, and the bit-identity assert.

The journal is the resilience subsystem's source of truth: every test
here protects an invariant the resume path leans on — stable point keys,
restorable-literal round-trips, the determinism violation raise on a
divergent re-execution, and loud failures on unparseable journals (a
journal that does not parse must never silently resume from garbage).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.catalog import CATALOG_SCHEMA_VERSION
from repro.errors import ConfigError, SimulationError
from repro.parallel import SweepPoint, result_hash
from repro.resilience import (
    RunJournal,
    journal_hashes,
    point_key,
    sweep_id,
    worker_name,
)

from .resilience_workers import square


def _points(n: int = 4) -> list:
    return [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, rate=i / 10.0) for i in range(n)
    ]


class TestContentAddressing:
    def test_worker_name_is_module_qualified(self) -> None:
        assert worker_name(square) == "tests.resilience_workers.square"

    def test_point_key_is_stable_and_discriminating(self) -> None:
        point = SweepPoint.make(3, "pt@3", seed=7, rate=0.3)
        key = point_key("fn", point)
        assert key == point_key("fn", SweepPoint.make(3, "pt@3", seed=7, rate=0.3))
        variants = [
            point_key("other_fn", point),
            point_key("fn", SweepPoint.make(4, "pt@3", seed=7, rate=0.3)),
            point_key("fn", SweepPoint.make(3, "pt@x", seed=7, rate=0.3)),
            point_key("fn", SweepPoint.make(3, "pt@3", seed=8, rate=0.3)),
            point_key("fn", SweepPoint.make(3, "pt@3", seed=7, rate=0.4)),
        ]
        assert key not in variants
        assert len(set(variants)) == len(variants)

    def test_sweep_id_depends_on_membership(self) -> None:
        keys = [point_key("fn", p) for p in _points()]
        identity = sweep_id("fn", keys)
        assert identity.startswith("fn#")
        assert identity == sweep_id("fn", keys)
        assert identity != sweep_id("fn", keys[:-1])


class TestRecordRestore:
    def test_round_trip_through_a_reopened_journal(self, tmp_path: Path) -> None:
        path = tmp_path / "run.journal"
        points = _points()
        journal = RunJournal(path)
        sweep = journal.register_sweep("fn", points)
        for point in points:
            assert journal.record(
                sweep, point_key("fn", point), point, square(point)
            )
        assert journal.entry_count == len(points)

        resumed = RunJournal(path, resume=True)
        for point in points:
            ok, value = resumed.lookup("fn", point)
            assert ok
            assert value == square(point)

    def test_fresh_journal_replaces_an_old_file_on_registration(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.journal"
        old_points, new_points = _points(2), _points(3)
        old = RunJournal(path)
        old_sweep = old.register_sweep("fn", old_points)
        for point in old_points:
            old.record(old_sweep, point_key("fn", point), point, square(point))
        old.close()
        # A fresh run that records nothing still leaves no stale sweeps.
        with RunJournal(path) as fresh:
            new_sweep = fresh.register_sweep("fn", new_points)
        assert set(journal_hashes(path)) == {new_sweep}
        assert RunJournal(path, resume=True).entry_count == 0

    def test_restore_misses_on_unknown_key(self, tmp_path: Path) -> None:
        journal = RunJournal(tmp_path / "run.journal")
        assert journal.lookup("fn", _points(1)[0]) == (False, None)

    def test_identical_re_record_is_a_no_op(self, tmp_path: Path) -> None:
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        point = _points(1)[0]
        sweep = journal.register_sweep("fn", [point])
        key = point_key("fn", point)
        assert journal.record(sweep, key, point, square(point)) is True
        before = path.read_bytes()
        # The determinism assert: an identical re-record appends nothing.
        assert journal.record(sweep, key, point, square(point)) is False
        assert journal.entry_count == 1
        assert path.read_bytes() == before

    def test_divergent_re_record_raises_determinism_violation(
        self, tmp_path: Path
    ) -> None:
        journal = RunJournal(tmp_path / "run.journal")
        point = _points(1)[0]
        sweep = journal.register_sweep("fn", [point])
        key = point_key("fn", point)
        journal.record(sweep, key, point, (1, 2.5))
        with pytest.raises(SimulationError, match="journal determinism violation"):
            journal.record(sweep, key, point, (1, 2.5000001))

    def test_non_literal_payload_is_not_restorable(self, tmp_path: Path) -> None:
        journal = RunJournal(tmp_path / "run.journal")
        point = _points(1)[0]
        sweep = journal.register_sweep("fn", [point])
        key = point_key("fn", point)
        assert journal.record(sweep, key, point, object()) is True
        assert journal.stats()["restorable"] == 0
        # Must recompute — but the re-execution still gets the identity assert.
        assert journal.lookup("fn", point) == (False, None)

    def test_float_payloads_round_trip_exactly(self, tmp_path: Path) -> None:
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        point = _points(1)[0]
        sweep = journal.register_sweep("fn", [point])
        value = [0.1 + 0.2, 1e-17, 2.0**53 + 1.0, float("1.7976931348623157e308")]
        journal.record(sweep, point_key("fn", point), point, value)
        ok, restored = RunJournal(path, resume=True).lookup("fn", point)
        assert ok and repr(restored) == repr(value)


class TestJournalParsing:
    def test_resume_requires_an_existing_file(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="cannot resume"):
            RunJournal(tmp_path / "missing.journal", resume=True)

    def test_empty_journal_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "empty.journal"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="is empty"):
            RunJournal(path, resume=True)

    def test_corrupt_json_line_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "corrupt.journal"
        header = json.dumps(
            {"kind": "header", "schema_version": CATALOG_SCHEMA_VERSION}
        )
        path.write_text(header + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunJournal(path, resume=True)

    def test_missing_header_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "headless.journal"
        path.write_text(
            json.dumps({"kind": "sweep", "id": "s", "fn": "f", "points": 1}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="first line must be the header"):
            RunJournal(path, resume=True)

    def test_wrong_schema_version_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "future.journal"
        path.write_text(
            json.dumps({"kind": "header", "schema_version": 999}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="schema_version"):
            RunJournal(path, resume=True)

    def test_unknown_record_kind_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "odd.journal"
        header = json.dumps(
            {"kind": "header", "schema_version": CATALOG_SCHEMA_VERSION}
        )
        path.write_text(
            header + "\n" + json.dumps({"kind": "mystery"}) + "\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="unknown record kind"):
            RunJournal(path, resume=True)

    def test_parent_format_point_records_are_refused(self, tmp_path: Path) -> None:
        # Journals once stored completed points as ``point`` lines without
        # an envelope or integrity hash; they cannot be verified, so a
        # resume refuses them instead of serving unchecked values.
        path = tmp_path / "old.journal"
        lines = [
            {"kind": "header", "schema_version": 1, "tool": "repro-journal"},
            {"kind": "sweep", "id": "fn#0", "fn": "fn", "points": 1},
            {
                "kind": "point",
                "sweep": "fn#0",
                "key": "k",
                "index": 0,
                "label": "pt@0",
                "value_repr": "1",
                "restorable": True,
            },
        ]
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="unknown record kind 'point'"):
            RunJournal(path, resume=True)

    def test_journal_parses_after_every_append(self, tmp_path: Path) -> None:
        """The atomic-flush guarantee: no observable intermediate is torn."""
        path = tmp_path / "run.journal"
        points = _points(3)
        journal = RunJournal(path)
        sweep = journal.register_sweep("fn", points)
        for i, point in enumerate(points):
            journal.record(sweep, point_key("fn", point), point, square(point))
            reread = RunJournal(path, resume=True)
            assert reread.entry_count == i + 1


class TestJournalHashes:
    def test_hash_matches_result_hash_of_ordered_values(
        self, tmp_path: Path
    ) -> None:
        """journal_hashes == result_hash: journals diff against live runs."""
        path = tmp_path / "run.journal"
        points = _points(5)
        journal = RunJournal(path)
        sweep = journal.register_sweep("fn", points)
        # Record out of index order; the digest must still be index-ordered.
        for point in reversed(points):
            journal.record(sweep, point_key("fn", point), point, square(point))
        digests = journal_hashes(path)
        assert set(digests) == {sweep}
        entry = digests[sweep]
        assert entry["complete"] is True
        assert entry["points"] == entry["expected_points"] == len(points)
        assert entry["hash"] == result_hash([square(p) for p in points])

    def test_partial_journal_reports_incomplete(self, tmp_path: Path) -> None:
        path = tmp_path / "run.journal"
        points = _points(4)
        journal = RunJournal(path)
        sweep = journal.register_sweep("fn", points)
        for point in points[:2]:
            journal.record(sweep, point_key("fn", point), point, square(point))
        entry = journal_hashes(path)[sweep]
        assert entry["complete"] is False
        assert entry["points"] == 2 and entry["expected_points"] == 4
