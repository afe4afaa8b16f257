"""Regression tests for the journal's append-mode write path.

The original implementation rewrote the entire NDJSON file on every
``record()`` — O(n²) bytes over a sweep. These tests pin the replacement
contract: appends never rewrite (at most one atomic write, for the
header), resume hashes are byte-identical to an uninterrupted run, and a
final line torn by a crash mid-append is salvaged on resume while
terminated corruption still fails loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.resilience.store as store_mod
from repro.errors import ConfigError
from repro.parallel import SweepPoint, result_hash
from repro.resilience import RunJournal, journal_hashes, point_key


def _points(n: int = 6) -> list:
    return [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, rate=i / 10.0) for i in range(n)
    ]


def _value(point: SweepPoint) -> tuple:
    return (point.index, point.seed * 1.5)


def _record_all(path: Path, points: list, resume: bool = False) -> RunJournal:
    journal = RunJournal(path, resume=resume)
    sweep = journal.register_sweep("fn", points)
    for point in points:
        journal.record(sweep, point_key("fn", point), point, _value(point))
    journal.close()
    return journal


class TestAppendNotRewrite:
    def test_appends_use_one_atomic_write_total(self, tmp_path, monkeypatch):
        calls = []
        real = store_mod.atomic_write_text

        def counting(path, text):
            calls.append(str(path))
            return real(path, text)

        monkeypatch.setattr(store_mod, "atomic_write_text", counting)
        path = tmp_path / "run.journal"
        _record_all(path, _points(20))
        # One atomic write creates the header; all 21 records (1 sweep +
        # 20 points) are appends.
        assert len(calls) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 22  # header + sweep + 20 points

    def test_resume_appends_without_any_rewrite(self, tmp_path, monkeypatch):
        path = tmp_path / "run.journal"
        points = _points(6)
        _record_all(path, points[:3])
        calls = []
        monkeypatch.setattr(
            store_mod,
            "atomic_write_text",
            lambda *a, **k: calls.append(a),
        )
        _record_all(path, points, resume=True)
        # A clean resumed journal matches disk: zero atomic rewrites.
        assert calls == []

    def test_journal_parses_after_interrupted_append_sequence(self, tmp_path):
        path = tmp_path / "run.journal"
        points = _points(5)
        journal = RunJournal(path)
        sweep = journal.register_sweep("fn", points)
        for point in points[:2]:
            journal.record(sweep, point_key("fn", point), point, _value(point))
        # No close(): simulate the process dying with the handle open.
        # Every append was fsync'd, so the file is a complete prefix.
        resumed = RunJournal(path, resume=True)
        assert resumed.entry_count == 2


class TestResumeHashIdentity:
    def test_resume_hashes_byte_identical_to_uninterrupted_run(self, tmp_path):
        points = _points(8)
        clean_path = tmp_path / "clean.journal"
        _record_all(clean_path, points)

        interrupted_path = tmp_path / "interrupted.journal"
        partial = RunJournal(interrupted_path)
        sweep = partial.register_sweep("fn", points)
        for point in points[:4]:
            partial.record(sweep, point_key("fn", point), point, _value(point))
        partial.close()
        _record_all(interrupted_path, points, resume=True)

        clean = journal_hashes(clean_path)
        resumed = journal_hashes(interrupted_path)
        assert clean == resumed
        (sweep_summary,) = resumed.values()
        assert sweep_summary["complete"]
        assert sweep_summary["hash"] == result_hash([_value(p) for p in points])


class TestTornTail:
    def test_torn_final_line_is_salvaged_on_resume(self, tmp_path):
        path = tmp_path / "run.journal"
        points = _points(4)
        partial = RunJournal(path)
        sweep = partial.register_sweep("fn", points)
        for point in points[:3]:
            partial.record(sweep, point_key("fn", point), point, _value(point))
        partial.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "key": "')  # torn mid-append
        journal = RunJournal(path, resume=True)
        assert journal.entry_count == 3
        sweep = journal.register_sweep("fn", points)
        journal.record(sweep, point_key("fn", points[3]), points[3], _value(points[3]))
        journal.close()
        # The torn bytes are gone and the file is clean NDJSON again.
        for line in path.read_text().splitlines():
            json.loads(line)
        assert journal_hashes(path)[sweep]["points"] == 4

    def test_salvaged_resume_matches_clean_run_hash(self, tmp_path):
        points = _points(5)
        clean_path = tmp_path / "clean.journal"
        _record_all(clean_path, points)

        torn_path = tmp_path / "torn.journal"
        partial = RunJournal(torn_path)
        sweep = partial.register_sweep("fn", points)
        for point in points[:2]:
            partial.record(sweep, point_key("fn", point), point, _value(point))
        partial.close()
        with torn_path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "ent')
        _record_all(torn_path, points, resume=True)
        assert journal_hashes(torn_path) == journal_hashes(clean_path)

    def test_terminated_corrupt_line_still_fails_loudly(self, tmp_path):
        path = tmp_path / "run.journal"
        _record_all(path, _points(2))
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{not json}\n")  # newline-terminated: not a torn append
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunJournal(path, resume=True)

    def test_torn_line_without_salvage_context_still_fails(self, tmp_path):
        # A one-line file that is pure garbage is corruption, not a torn
        # append (there is no valid prefix to salvage).
        path = tmp_path / "run.journal"
        path.write_text('{"kind": "hea', encoding="utf-8")
        with pytest.raises(ConfigError):
            RunJournal(path, resume=True)


class TestCompaction:
    def test_compact_folds_duplicates_to_canonical_bytes(self, tmp_path):
        path = tmp_path / "run.journal"
        points = _points()
        _record_all(path, points)
        canonical = path.read_text(encoding="utf-8")
        hashes_before = journal_hashes(path)

        # Simulate a journal concatenation: every non-header line repeated
        # (the parser is last-wins per key, so parsing is unchanged).
        lines = canonical.splitlines()
        path.write_text("\n".join(lines + lines[1:]) + "\n", encoding="utf-8")
        assert journal_hashes(path) == hashes_before

        journal = RunJournal(path, resume=True)
        reclaimed = journal.compact()
        journal.close()
        assert reclaimed > 0
        # Byte identity: compaction reproduces exactly the file an
        # uninterrupted run would have written.
        assert path.read_text(encoding="utf-8") == canonical
        assert journal_hashes(path) == hashes_before

    def test_compact_salvages_a_torn_tail(self, tmp_path):
        path = tmp_path / "run.journal"
        points = _points(3)
        _record_all(path, points)
        canonical = path.read_text(encoding="utf-8")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "key": "')  # crash mid-append
        journal = RunJournal(path, resume=True)
        assert journal.compact() > 0
        journal.close()
        assert path.read_text(encoding="utf-8") == canonical

    def test_compact_of_a_clean_journal_reclaims_nothing(self, tmp_path):
        path = tmp_path / "run.journal"
        _record_all(path, _points(3))
        before = path.read_text(encoding="utf-8")
        journal = RunJournal(path, resume=True)
        assert journal.compact() == 0
        journal.close()
        assert path.read_text(encoding="utf-8") == before

    def test_resume_after_compact_restores_every_point(self, tmp_path):
        path = tmp_path / "run.journal"
        points = _points()
        _record_all(path, points)
        journal = RunJournal(path, resume=True)
        journal.compact()
        journal.close()
        resumed = RunJournal(path, resume=True)
        for point in points:
            hit, value = resumed.lookup("fn", point)
            assert hit and value == _value(point)
        resumed.close()
