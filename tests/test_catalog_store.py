"""RunCatalog: the durable cross-invocation cache and its verified hits.

Everything the service topology leans on is pinned here: content-key
lookup across reopens, bit-identity verification on every hit, loud
rejection of poisoned entries ("catalog determinism violation" — never a
silently served wrong value), fsync'd append durability with torn-tail
salvage, last-wins duplicate folding plus compaction, and the
maintenance CLI (``python -m repro.catalog stats|compact``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.catalog import CATALOG_SCHEMA_VERSION, RunCatalog, entry_integrity
from repro.catalog.__main__ import main as catalog_main
from repro.errors import ConfigError, SimulationError
from repro.parallel import SweepPoint
from repro.resilience import RunJournal, point_key


def _points(n: int = 4) -> List[SweepPoint]:
    return [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, rate=i / 10.0)
        for i in range(n)
    ]


def _value(point: SweepPoint) -> tuple:
    return (point.index, point.label, point.seed / 7.0)


def _fill(path: Path, points: "List[SweepPoint] | None" = None) -> List[SweepPoint]:
    points = _points() if points is None else points
    with RunCatalog(path) as catalog:
        for point in points:
            assert catalog.record("fn", "fn#1", point, _value(point)) is True
    return points


def _mutate_entry(path: Path, line_index: int = 1, **overrides: object) -> None:
    """Rewrite one on-disk entry line with the given field overrides."""
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[line_index])
    entry.update(overrides)
    lines[line_index] = json.dumps(entry)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLookupAndRecord:
    def test_round_trip_across_reopens(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _fill(path)
        catalog = RunCatalog(path)  # a later invocation loads the file
        for point in points:
            hit, value = catalog.lookup("fn", point)
            assert hit is True
            assert value == _value(point)
        assert catalog.hits == len(points)
        assert catalog.misses == 0

    def test_unknown_point_is_a_miss(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        _fill(path)
        catalog = RunCatalog(path)
        stranger = SweepPoint.make(99, "pt@99", seed=7, rate=0.5)
        assert catalog.lookup("fn", stranger) == (False, None)
        assert catalog.misses == 1

    def test_fn_name_is_part_of_the_key(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        catalog = RunCatalog(path)
        assert catalog.lookup("other_fn", point) == (False, None)

    def test_identical_re_record_is_a_no_op(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        catalog = RunCatalog(path)
        assert catalog.record("fn", "fn#1", point, _value(point)) is False
        assert catalog.entry_count == 1

    def test_divergent_re_record_is_a_determinism_violation(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        catalog = RunCatalog(path)
        with pytest.raises(SimulationError, match="catalog determinism violation"):
            catalog.record("fn", "fn#1", point, ("not", "the", "same"))

    def test_non_restorable_value_is_recorded_but_never_served(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.catalog"
        (point,) = _points(1)
        with RunCatalog(path) as catalog:
            assert catalog.record("fn", "fn#1", point, object()) is True
        reopened = RunCatalog(path)
        # The entry exists (for audit) but cannot be restored: a miss, so
        # the executor recomputes — and record() still asserts identity.
        assert reopened.entry_count == 1
        assert reopened.lookup("fn", point) == (False, None)
        assert reopened.misses == 1

    def test_stats_snapshot(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _fill(path)
        catalog = RunCatalog(path)
        catalog.lookup("fn", points[0])
        stats = catalog.stats()
        assert stats["entries"] == len(points)
        assert stats["restorable"] == len(points)
        assert stats["functions"] == {"fn": len(points)}
        assert stats["hits"] == 1 and stats["misses"] == 0


class TestPoisonDetection:
    def test_mutated_value_repr_fails_integrity(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        _mutate_entry(path, value_repr="(999, 'poisoned', 0.0)")
        catalog = RunCatalog(path)
        with pytest.raises(SimulationError, match="catalog determinism violation"):
            catalog.lookup("fn", point)

    def test_mutated_envelope_is_caught_even_with_fixed_integrity(
        self, tmp_path: Path
    ) -> None:
        # An attacker (or a corrupting tool) that recomputes the
        # integrity hash still cannot survive the envelope-vs-live-point
        # comparison: the key was derived from the submitted point.
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[1])
        forged_envelope = entry["envelope"] + "tampered"
        _mutate_entry(
            path,
            envelope=forged_envelope,
            integrity=entry_integrity(forged_envelope, entry["value_repr"]),
        )
        catalog = RunCatalog(path)
        with pytest.raises(SimulationError, match="catalog determinism violation"):
            catalog.lookup("fn", point)

    def test_value_that_does_not_round_trip_is_refused(
        self, tmp_path: Path
    ) -> None:
        # "(0, 'pt@0', 0.0,)" literal-evals fine but reprs back without
        # the trailing comma: the stored repr is not canonical, so the
        # hit is refused rather than served with a mutated hash basis.
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[1])
        crooked = entry["value_repr"][:-1] + ",)"
        _mutate_entry(
            path,
            value_repr=crooked,
            integrity=entry_integrity(entry["envelope"], crooked),
        )
        catalog = RunCatalog(path)
        with pytest.raises(SimulationError, match="catalog determinism violation"):
            catalog.lookup("fn", point)

    def test_poisoned_re_record_is_also_refused(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        (point,) = _fill(path, _points(1))
        _mutate_entry(path, value_repr="'poisoned'")
        catalog = RunCatalog(path)
        with pytest.raises(SimulationError, match="catalog determinism violation"):
            catalog.record("fn", "fn#1", point, _value(point))


class TestDurability:
    def test_catalog_parses_after_every_append(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _points()
        catalog = RunCatalog(path)
        for i, point in enumerate(points, start=1):
            catalog.record("fn", "fn#1", point, _value(point))
            assert RunCatalog(path).entry_count == i
        catalog.close()

    def test_torn_final_line_is_salvaged(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _fill(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "entry", "key": "torn')  # no newline: a crash
        salvaged = RunCatalog(path)
        assert salvaged.entry_count == len(points)
        extra = SweepPoint.make(9, "pt@9", seed=9, rate=0.9)
        salvaged.record("fn", "fn#1", extra, _value(extra))
        salvaged.close()
        assert RunCatalog(path).entry_count == len(points) + 1

    def test_terminated_corrupt_line_still_fails_loudly(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.catalog"
        _fill(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("not json\n")  # newline-terminated: not a torn tail
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunCatalog(path)

    def test_empty_file_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="empty"):
            RunCatalog(path)

    def test_missing_header_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        path.write_text('{"kind": "entry"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            RunCatalog(path)

    def test_wrong_schema_version_is_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        header = {
            "kind": "header",
            "schema_version": CATALOG_SCHEMA_VERSION + 1,
            "tool": "repro-catalog",
        }
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="schema_version"):
            RunCatalog(path)


class TestCompaction:
    def test_duplicate_keys_fold_last_wins(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _fill(path)
        canonical = path.read_text(encoding="utf-8")
        # Simulate a catalog concatenation: every entry line repeated.
        lines = canonical.splitlines()
        path.write_text("\n".join(lines + lines[1:]) + "\n", encoding="utf-8")
        catalog = RunCatalog(path)
        assert catalog.entry_count == len(points)
        reclaimed = catalog.compact()
        assert reclaimed > 0
        # Compaction restores the canonical byte form exactly.
        assert path.read_text(encoding="utf-8") == canonical
        for point in points:
            assert RunCatalog(path).lookup("fn", point) == (True, _value(point))

    def test_compact_of_a_clean_catalog_reclaims_nothing(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.catalog"
        _fill(path)
        before = path.read_text(encoding="utf-8")
        catalog = RunCatalog(path)
        assert catalog.compact() == 0
        assert path.read_text(encoding="utf-8") == before


class TestMaintenanceCli:
    def test_stats_command(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        path = tmp_path / "run.catalog"
        points = _fill(path)
        assert catalog_main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(points)} entries" in out
        assert "fn: " in out

    def test_compact_command(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        path = tmp_path / "run.catalog"
        _fill(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines + lines[1:]) + "\n", encoding="utf-8")
        assert catalog_main(["compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out

    def test_hash_and_diff_read_journals_and_catalogs_alike(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        points = _points()
        paths = [str(tmp_path / "run.journal"), str(tmp_path / "run.catalog")]
        with RunJournal(paths[0]) as journal, RunCatalog(paths[1]) as catalog:
            sweep = journal.register_sweep("fn", points)
            assert catalog.register_sweep("fn", points) == sweep
            for point in points:
                journal.record(sweep, point_key("fn", point), point, _value(point))
                catalog.record("fn", sweep, point, _value(point))
        assert catalog_main(["hash", paths[0]]) == 0
        journal_out = capsys.readouterr().out
        assert catalog_main(["hash", paths[1]]) == 0
        assert capsys.readouterr().out == journal_out
        assert f"{len(points)}/{len(points)} points" in journal_out
        assert catalog_main(["diff", *paths]) == 0
        assert "bit-identical per sweep" in capsys.readouterr().out

    def test_diff_reports_a_mismatch(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        points = _points()
        paths = []
        for offset in (0, 1):
            path = tmp_path / f"run{offset}.journal"
            with RunJournal(path) as journal:
                sweep = journal.register_sweep("fn", points)
                for point in points:
                    value = (point.index + offset,)
                    journal.record(sweep, point_key("fn", point), point, value)
            paths.append(str(path))
        assert catalog_main(["diff", *paths]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_missing_catalog_exits_2(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        assert catalog_main(["stats", str(tmp_path / "absent.catalog")]) == 2
        assert "does not exist" in capsys.readouterr().err
