"""Executor × catalog: verified cache hits across invocations.

The catalog's promise is cross-run: a second invocation of the same
sweep — any job count, any process — recomputes nothing, and every hit
passed a bit-identity verification first. These tests drive the real
:class:`SweepExecutor` resilient path with real worker processes and
assert the values, the ``catalog.*`` probe counters, and the
:class:`SweepOutcome` accounting all tell the same story.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.catalog import RunCatalog
from repro.errors import SimulationError
from repro.experiments.fig4_bandwidth import Fig4Result, run_fig4
from repro.obs import CountingProbe
from repro.parallel import SweepExecutor, SweepPoint
from repro.resilience import ResilienceOptions, RunJournal, worker_name

from . import resilience_workers as workers


def _points(n: int = 6) -> List[SweepPoint]:
    return [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, rate=i / 10.0)
        for i in range(n)
    ]


def _expected(points: List[SweepPoint]) -> List[int]:
    return [workers.square(p) for p in points]


class TestCatalogRuns:
    def test_second_run_is_all_cache_hits(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _points()
        first_probe = CountingProbe()
        with RunCatalog(path) as catalog:
            first = ResilienceOptions(catalog=catalog, probe=first_probe)
            SweepExecutor(jobs=2, resilience=first).map(workers.square, points)
        assert first_probe.counters["catalog.appends"] == len(points)

        probe = CountingProbe()
        with RunCatalog(path) as catalog:
            second = ResilienceOptions(catalog=catalog, probe=probe)
            results = SweepExecutor(jobs=2, resilience=second).map(
                workers.square, points
            )
        assert [r.value for r in results] == _expected(points)
        assert probe.counters["catalog.hits"] == len(points)
        assert "catalog.appends" not in probe.counters
        (outcome,) = second.outcomes
        assert outcome.cache_hits == len(points)
        assert outcome.complete
        assert outcome.catalog_path == str(path)
        assert f"{len(points)} cached" in "\n".join(outcome.summary_lines())

    def test_partial_catalog_computes_only_the_misses(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.catalog"
        points = _points()
        fn_name = worker_name(workers.square)
        with RunCatalog(path) as catalog:
            for point in points[:3]:
                catalog.record(fn_name, "pre", point, workers.square(point))
        probe = CountingProbe()
        with RunCatalog(path) as catalog:
            options = ResilienceOptions(catalog=catalog, probe=probe)
            results = SweepExecutor(jobs=2, resilience=options).map(
                workers.square, points
            )
        assert [r.value for r in results] == _expected(points)
        assert probe.counters["catalog.hits"] == 3
        assert probe.counters["catalog.appends"] == 3
        assert RunCatalog(path).entry_count == len(points)

    def test_journal_restore_backfills_the_catalog(self, tmp_path: Path) -> None:
        journal_path = tmp_path / "run.journal"
        catalog_path = tmp_path / "run.catalog"
        points = _points()
        first = ResilienceOptions(journal=RunJournal(journal_path))
        SweepExecutor(jobs=2, resilience=first).map(workers.square, points)

        # Resuming with a fresh catalog attached pushes every
        # journal-restored point into the durable store.
        probe = CountingProbe()
        with RunCatalog(catalog_path) as catalog:
            second = ResilienceOptions(
                journal=RunJournal(journal_path, resume=True),
                catalog=catalog,
                probe=probe,
            )
            SweepExecutor(jobs=2, resilience=second).map(workers.square, points)
        assert probe.counters["catalog.appends"] == len(points)
        assert RunCatalog(catalog_path).entry_count == len(points)

        # ...and a third, journal-less run is served entirely from it.
        probe3 = CountingProbe()
        with RunCatalog(catalog_path) as catalog:
            third = ResilienceOptions(catalog=catalog, probe=probe3)
            results = SweepExecutor(jobs=2, resilience=third).map(
                workers.square, points
            )
        assert [r.value for r in results] == _expected(points)
        assert probe3.counters["catalog.hits"] == len(points)

    def test_catalog_hits_are_journaled_on_a_fresh_journal(
        self, tmp_path: Path
    ) -> None:
        catalog_path = tmp_path / "run.catalog"
        journal_path = tmp_path / "late.journal"
        points = _points()
        with RunCatalog(catalog_path) as catalog:
            warmup = ResilienceOptions(catalog=catalog)
            SweepExecutor(jobs=2, resilience=warmup).map(workers.square, points)
        with RunCatalog(catalog_path) as catalog:
            options = ResilienceOptions(
                journal=RunJournal(journal_path), catalog=catalog
            )
            SweepExecutor(jobs=2, resilience=options).map(workers.square, points)
        (outcome,) = options.outcomes
        assert outcome.cache_hits == len(points)
        # The journal caught up from the catalog: a later --resume works
        # without the catalog file present at all.
        resumed = ResilienceOptions(journal=RunJournal(journal_path, resume=True))
        results = SweepExecutor(jobs=2, resilience=resumed).map(
            workers.square, points
        )
        assert [r.value for r in results] == _expected(points)
        assert resumed.outcomes[0].resumed == len(points)

    def test_sweep_results_identical_with_and_without_catalog(
        self, tmp_path: Path
    ) -> None:
        points = _points()
        plain = SweepExecutor(jobs=1).map(workers.square, points)
        with RunCatalog(tmp_path / "run.catalog") as catalog:
            options = ResilienceOptions(catalog=catalog)
            cold = SweepExecutor(jobs=2, resilience=options).map(
                workers.square, points
            )
        with RunCatalog(tmp_path / "run.catalog") as catalog:
            options = ResilienceOptions(catalog=catalog)
            warm = SweepExecutor(jobs=2, resilience=options).map(
                workers.square, points
            )
        assert (
            [r.value for r in plain]
            == [r.value for r in cold]
            == [r.value for r in warm]
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig4_sweep_warm_pass_is_all_hits(
        self, tmp_path: Path, jobs: int
    ) -> None:
        """A real experiment sweep, not toy points: every warm point hits."""
        path = tmp_path / "fig4.catalog"
        rates = (0.05, 0.08, 0.10, 0.15, 0.20, 0.40, 1.0)

        def sweep(probe: CountingProbe) -> Fig4Result:
            with RunCatalog(path) as catalog:
                options = ResilienceOptions(catalog=catalog, probe=probe)
                return run_fig4(
                    "ssvc", rates, horizon=2_500, jobs=jobs, resilience=options
                )

        cold_probe = CountingProbe()
        cold = sweep(cold_probe)
        assert cold_probe.counters["catalog.appends"] == len(rates)
        warm_probe = CountingProbe()
        warm = sweep(warm_probe)
        assert warm_probe.counters["catalog.hits"] == len(rates)
        assert "catalog.appends" not in warm_probe.counters
        assert warm == cold


class TestPoisonedCatalog:
    def test_poisoned_entry_fails_the_sweep_loudly(self, tmp_path: Path) -> None:
        path = tmp_path / "run.catalog"
        points = _points()
        with RunCatalog(path) as catalog:
            options = ResilienceOptions(catalog=catalog)
            SweepExecutor(jobs=2, resilience=options).map(workers.square, points)
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[1])
        entry["value_repr"] = "999999"  # poison without fixing integrity
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with RunCatalog(path) as catalog:
            options = ResilienceOptions(catalog=catalog)
            with pytest.raises(
                SimulationError, match="catalog determinism violation"
            ):
                SweepExecutor(jobs=2, resilience=options).map(
                    workers.square, points
                )

    def test_nondeterministic_recompute_is_refused(self, tmp_path: Path) -> None:
        # Same key, different recorded value: the divergence surfaces the
        # moment the recomputed point is re-recorded.
        path = tmp_path / "run.catalog"
        (point,) = _points(1)
        fn_name = worker_name(workers.square)
        with RunCatalog(path) as catalog:
            catalog.record(fn_name, "pre", point, workers.square(point) + 1)
            # The wrong value is served as a hit only if it verifies; it
            # does (it was recorded consistently), so executing the sweep
            # serves the recorded value — but a recompute-and-record from
            # any journal-less path asserts against it:
            with pytest.raises(
                SimulationError, match="catalog determinism violation"
            ):
                catalog.record(fn_name, "pre", point, workers.square(point))
