"""The resilient executor: journal, retries, watchdog, salvage, cancellation.

Every scenario here runs real worker processes (the workers live in
``tests.resilience_workers`` so they pickle) and asserts three things at
once: the returned results are bit-identical to the plain serial path,
the :class:`SweepOutcome` accounting is explicit (holes are named, never
silent), and the ``resilience.*`` probe counters tell the same story.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.errors import ConfigError, SimulationError, SweepInterrupted
from repro.obs import CountingProbe
from repro.parallel import CHAOS_ENV, SweepExecutor, SweepPoint, result_hash
from repro.resilience import (
    FailurePolicy,
    ResilienceOptions,
    RetryPolicy,
    RunJournal,
    journal_hashes,
)

from . import resilience_workers as workers


def _points(n: int = 6, **params: object) -> List[SweepPoint]:
    return [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, **params) for i in range(n)
    ]


def _expected(points: List[SweepPoint]) -> List[int]:
    return [workers.square(p) for p in points]


#: Fast backoff so retry tests don't sleep the suite.
_FAST_RETRY = dict(backoff_base=0.001, backoff_cap=0.01)


class TestJournaledRuns:
    def test_parallel_journaled_run_matches_serial_values(
        self, tmp_path: Path
    ) -> None:
        points = _points()
        serial = SweepExecutor(jobs=1).map(workers.square, points)
        probe = CountingProbe()
        options = ResilienceOptions(
            journal=RunJournal(tmp_path / "run.journal"), probe=probe
        )
        resilient = SweepExecutor(jobs=2, resilience=options).map(
            workers.square, points
        )
        assert [r.value for r in resilient] == [r.value for r in serial]

        (outcome,) = options.outcomes
        assert outcome.complete and not outcome.failures
        assert outcome.resumed == 0
        counters = probe.counters
        assert counters["resilience.points_completed"] == len(points)
        assert counters["resilience.journal_appends"] == len(points)
        digest = journal_hashes(tmp_path / "run.journal")[outcome.sweep]
        assert digest["complete"] is True
        assert digest["hash"] == result_hash(_expected(points))

    def test_full_resume_restores_every_point(self, tmp_path: Path) -> None:
        path = tmp_path / "run.journal"
        points = _points()
        first = ResilienceOptions(journal=RunJournal(path))
        SweepExecutor(jobs=2, resilience=first).map(workers.square, points)

        probe = CountingProbe()
        second = ResilienceOptions(journal=RunJournal(path, resume=True), probe=probe)
        results = SweepExecutor(jobs=2, resilience=second).map(workers.square, points)
        assert [r.value for r in results] == _expected(points)
        (outcome,) = second.outcomes
        assert outcome.resumed == len(points)
        assert probe.counters["resilience.points_resumed"] == len(points)
        # Nothing recomputed, nothing re-journaled.
        assert "resilience.journal_appends" not in probe.counters

    def test_resume_recomputation_asserts_bit_identity(
        self, tmp_path: Path
    ) -> None:
        """A tampered (or nondeterministic) journal must refuse to resume."""
        path = tmp_path / "run.journal"
        points = _points(4)
        options = ResilienceOptions(journal=RunJournal(path))
        SweepExecutor(jobs=1, resilience=options).map(workers.square, points)

        # Corrupt one checkpoint: flip its value and force a recompute.
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") == "point" and record["index"] == 2:
                record["value_repr"] = "999999"
                record["restorable"] = False
            lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        resumed = ResilienceOptions(journal=RunJournal(path, resume=True))
        with pytest.raises(SimulationError, match="journal determinism violation"):
            SweepExecutor(jobs=1, resilience=resumed).map(workers.square, points)


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_recovers_within_budget(
        self, tmp_path: Path, jobs: int
    ) -> None:
        marker = tmp_path / "tripped.marker"
        points = _points(4, marker=str(marker), fail_index=2)
        probe = CountingProbe()
        options = ResilienceOptions(
            retry=RetryPolicy(retries=1, **_FAST_RETRY), probe=probe
        )
        results = SweepExecutor(jobs=jobs, resilience=options).map(
            workers.flaky_until_marker, points
        )
        assert [r.value for r in results] == _expected(points)
        (outcome,) = options.outcomes
        assert outcome.complete
        assert outcome.retried == 1
        assert probe.counters["resilience.retries"] == 1
        assert marker.exists()

    def test_exhausted_budget_fails_fast_with_the_point_named(self) -> None:
        points = _points(4, fail_index=1)
        options = ResilienceOptions(retry=RetryPolicy(retries=1, **_FAST_RETRY))
        with pytest.raises(
            SimulationError,
            match=r"sweep point 1 \(pt@1\) failed after 2 attempt\(s\) \[error\]",
        ):
            SweepExecutor(jobs=1, resilience=options).map(workers.fail_at, points)
        # Fail-fast still appends the outcome so the CLI can report it.
        (outcome,) = options.outcomes
        assert [f.index for f in outcome.failures] == [1]
        assert outcome.failures[0].attempts == 2


class TestSalvage:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_salvage_leaves_an_explicit_hole(self, jobs: int) -> None:
        points = _points(5, fail_index=3)
        probe = CountingProbe()
        options = ResilienceOptions(
            on_failure=FailurePolicy.SALVAGE, probe=probe
        )
        results = SweepExecutor(jobs=jobs, resilience=options).map(
            workers.fail_at, points
        )
        assert [r.point.index for r in results] == [0, 1, 2, 4]
        (outcome,) = options.outcomes
        assert not outcome.complete
        assert [f.index for f in outcome.failures] == [3]
        failure = outcome.failures[0]
        assert failure.kind == "error"
        assert "injected permanent failure" in failure.detail
        assert probe.counters["resilience.failures"] == 1
        assert options.failed
        assert any("FAILED pt@3" in line for line in outcome.summary_lines())

    def test_chaos_hook_fails_the_matching_label(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        monkeypatch.setenv(CHAOS_ENV, "pt@1")
        points = _points(4)
        options = ResilienceOptions(on_failure=FailurePolicy.SALVAGE)
        results = SweepExecutor(jobs=2, resilience=options).map(
            workers.square, points
        )
        assert [r.point.index for r in results] == [0, 2, 3]
        (outcome,) = options.outcomes
        assert outcome.failures[0].kind == "chaos"
        assert CHAOS_ENV in outcome.failures[0].detail


class TestWatchdog:
    def test_timeout_kills_the_hung_worker_and_salvages(self) -> None:
        points = _points(3, slow_index=1, sleep_s=30.0)
        probe = CountingProbe()
        options = ResilienceOptions(
            retry=RetryPolicy(point_timeout=0.4, **_FAST_RETRY),
            on_failure=FailurePolicy.SALVAGE,
            probe=probe,
        )
        results = SweepExecutor(jobs=2, resilience=options).map(
            workers.slow_at, points
        )
        assert [r.point.index for r in results] == [0, 2]
        (outcome,) = options.outcomes
        assert outcome.timeouts == 1
        assert outcome.failures[0].kind == "timeout"
        assert "point_timeout=0.4" in outcome.failures[0].detail
        assert probe.counters["resilience.timeouts"] == 1

    def test_timed_out_point_recovers_on_retry(self, tmp_path: Path) -> None:
        marker = tmp_path / "stalled.marker"
        points = _points(3, slow_index=1, sleep_s=30.0, marker=str(marker))
        options = ResilienceOptions(
            retry=RetryPolicy(retries=1, point_timeout=0.4, **_FAST_RETRY)
        )
        results = SweepExecutor(jobs=2, resilience=options).map(
            workers.slow_once, points
        )
        assert [r.value for r in results] == _expected(points)
        (outcome,) = options.outcomes
        assert outcome.complete
        assert outcome.timeouts == 1 and outcome.retried == 1

    def test_serial_path_notes_the_unenforced_timeout(self) -> None:
        points = _points(3)
        options = ResilienceOptions(retry=RetryPolicy(point_timeout=5.0))
        SweepExecutor(jobs=1, resilience=options).map(workers.square, points)
        (outcome,) = options.outcomes
        assert any(
            "point_timeout not enforced on the serial path" in note
            for note in outcome.notes
        )


class TestCancellation:
    def test_in_process_interrupt_drains_to_a_resumable_journal(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.journal"
        marker = tmp_path / "interrupted.marker"
        points = _points(5, at=2, marker=str(marker))
        probe = CountingProbe()
        options = ResilienceOptions(journal=RunJournal(path), probe=probe)
        with pytest.raises(SweepInterrupted, match="cancelled after completing 2/5"):
            SweepExecutor(jobs=1, resilience=options).map(
                workers.interrupt_once, points
            )
        (outcome,) = options.outcomes
        assert outcome.cancelled
        assert [r.point.index for r in outcome.results] == [0, 1]
        assert probe.counters["resilience.cancelled"] == 1
        assert options.failed

        # The journal left behind is consistent and resumes to completion.
        resumed = ResilienceOptions(journal=RunJournal(path, resume=True))
        results = SweepExecutor(jobs=1, resilience=resumed).map(
            workers.interrupt_once, points
        )
        assert [r.value for r in results] == _expected(points)
        assert resumed.outcomes[-1].resumed == 2

    def test_sweep_interrupted_carries_the_outcome(self, tmp_path: Path) -> None:
        marker = tmp_path / "interrupted.marker"
        points = _points(3, at=0, marker=str(marker))
        options = ResilienceOptions(on_failure=FailurePolicy.SALVAGE)
        with pytest.raises(SweepInterrupted) as excinfo:
            SweepExecutor(jobs=1, resilience=options).map(
                workers.interrupt_once, points
            )
        assert excinfo.value.outcome is options.outcomes[0]


class TestLegacyPathPreserved:
    def test_active_options_reject_bad_config_like_legacy(self) -> None:
        options = ResilienceOptions(retry=RetryPolicy(retries=1))
        executor = SweepExecutor(jobs=2, resilience=options)
        duplicated = [_points(1)[0], _points(1)[0]]
        with pytest.raises(ConfigError, match="duplicate sweep point index"):
            executor.map(workers.square, duplicated)
