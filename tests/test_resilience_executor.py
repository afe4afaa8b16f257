"""The resilient executor: journal, retries, watchdog, salvage, cancellation.

Every scenario here runs real worker processes (the workers live in
``tests.resilience_workers`` so they pickle) and asserts three things at
once: the returned results are bit-identical to the plain serial path,
the :class:`SweepOutcome` accounting is explicit (holes are named, never
silent), and the ``resilience.*`` probe counters tell the same story.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List

import pytest

import repro
from repro.catalog import RunCatalog, entry_integrity
from repro.catalog.__main__ import main as catalog_main
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

        # Rewrite one checkpoint consistently (integrity re-signed) to a
        # different, non-restorable value: lookup misses, the point is
        # recomputed, and re-recording it must trip the assert.
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") == "entry" and record["index"] == 2:
                record["value_repr"] = "999999"
                record["restorable"] = False
                record["integrity"] = entry_integrity(record["envelope"], "999999")
            lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        resumed = ResilienceOptions(journal=RunJournal(path, resume=True))
        with pytest.raises(
            SimulationError,
            match="journal determinism violation: point .* re-executed",
        ):
            SweepExecutor(jobs=1, resilience=resumed).map(workers.square, points)

    def test_stores_name_the_sweep_before_any_point_completes(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        """A sweep whose every point fails still leaves a resumable
        journal, and both stores report it as an incomplete sweep."""
        journal_path = tmp_path / "run.journal"
        catalog_path = tmp_path / "run.catalog"
        points = [
            SweepPoint.make(i, f"pt@{i}", seed=100 + i, fail_index=i)
            for i in range(2)
        ]
        with RunCatalog(catalog_path) as catalog:
            options = ResilienceOptions(
                journal=RunJournal(journal_path),
                catalog=catalog,
                on_failure=FailurePolicy.SALVAGE,
            )
            results = SweepExecutor(jobs=1, resilience=options).map(
                workers.fail_at, points
            )
        assert results == []
        (outcome,) = options.outcomes
        assert RunJournal(journal_path, resume=True).entry_count == 0
        for path in (journal_path, catalog_path):
            assert catalog_main(["hash", str(path)]) == 0
            assert capsys.readouterr().out == (
                f"{outcome.sweep}: 0/2 points hash={result_hash([])}"
                "  [INCOMPLETE]\n"
            )


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

    def test_single_pending_point_is_still_watched(self) -> None:
        """A one-point sweep at jobs >= 2 must not drop the watchdog."""
        points = _points(1, slow_index=0, sleep_s=3.0)
        options = ResilienceOptions(
            retry=RetryPolicy(point_timeout=0.4, **_FAST_RETRY),
            on_failure=FailurePolicy.SALVAGE,
        )
        start = time.monotonic()
        results = SweepExecutor(jobs=2, resilience=options).map(
            workers.slow_at, points
        )
        elapsed = time.monotonic() - start
        assert results == []
        (outcome,) = options.outcomes
        assert outcome.timeouts == 1
        assert outcome.failures[0].kind == "timeout"
        assert elapsed < 2.0
        assert not any("not enforced" in note for note in outcome.notes)

    def test_resume_with_one_point_left_is_still_watched(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.journal"
        points = _points(3, slow_index=1, sleep_s=3.0)
        retry = RetryPolicy(point_timeout=0.4, **_FAST_RETRY)
        first = ResilienceOptions(
            journal=RunJournal(path), retry=retry, on_failure=FailurePolicy.SALVAGE
        )
        SweepExecutor(jobs=2, resilience=first).map(workers.slow_at, points)
        assert first.outcomes[0].timeouts == 1

        resumed = ResilienceOptions(
            journal=RunJournal(path, resume=True),
            retry=retry,
            on_failure=FailurePolicy.SALVAGE,
        )
        start = time.monotonic()
        results = SweepExecutor(jobs=2, resilience=resumed).map(
            workers.slow_at, points
        )
        elapsed = time.monotonic() - start
        assert [r.point.index for r in results] == [0, 2]
        (outcome,) = resumed.outcomes
        assert outcome.resumed == 2
        assert outcome.timeouts == 1
        assert elapsed < 2.0


# Sweep exit paths for the leak check; each runs one jobs=2 sweep.
def _sweep_succeeds(tmp_path: Path) -> None:
    SweepExecutor(jobs=2).map(workers.square, _points(5))


def _sweep_fails_fast_on_error(tmp_path: Path) -> None:
    with pytest.raises(SimulationError, match=r"\[error\]"):
        SweepExecutor(jobs=2).map(workers.fail_at, _points(5, fail_index=1))


def _sweep_fails_fast_on_worker_death(tmp_path: Path) -> None:
    points = _points(5, exit_index=1, marker=str(tmp_path / "exited.marker"))
    with pytest.raises(SimulationError, match=r"\[worker-died\]"):
        SweepExecutor(jobs=2).map(workers.exit_once, points)


def _sweep_salvages_a_timeout(tmp_path: Path) -> None:
    options = ResilienceOptions(
        retry=RetryPolicy(point_timeout=0.4, **_FAST_RETRY),
        on_failure=FailurePolicy.SALVAGE,
    )
    SweepExecutor(jobs=2, resilience=options).map(
        workers.slow_at, _points(5, slow_index=1, sleep_s=30.0)
    )
    assert options.outcomes[0].timeouts == 1


def _sweep_stops_on_a_second_signal(tmp_path: Path) -> None:
    points = _points(
        4,
        at=1,
        marker=str(tmp_path / "signalled.marker"),
        ran_dir=str(tmp_path),
        signals=2,
        sleep_s=30.0,
    )
    start = time.monotonic()
    with pytest.raises(SweepInterrupted):
        SweepExecutor(jobs=2).map(workers.signal_parent_once, points)
    assert time.monotonic() - start < 10.0


#: Driver for the parent-killed test: a jobs=2 sweep whose points record
#: the pid that ran them. Runs in its own interpreter so the test can
#: SIGKILL it.
_PID_SWEEP_SCRIPT = """\
import os
import sys
import time
from pathlib import Path

from repro.parallel import SweepExecutor, SweepPoint


def work(point):
    Path(point.param("pid_dir"), str(os.getpid())).touch()
    time.sleep(0.2)
    return point.index


if __name__ == "__main__":
    points = [
        SweepPoint.make(i, f"pt@{i}", seed=i, pid_dir=sys.argv[1])
        for i in range(40)
    ]
    SweepExecutor(jobs=2).map(work, points)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWorkerLifecycle:
    def test_workers_are_reused_across_points(self) -> None:
        results = SweepExecutor(jobs=2).map(workers.worker_pid, _points(8))
        pids = {r.value for r in results}
        assert len(results) == 8
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_dead_worker_is_replaced_for_the_retry(self, tmp_path: Path) -> None:
        marker = tmp_path / "exited.marker"
        points = _points(4, exit_index=1, marker=str(marker))
        options = ResilienceOptions(retry=RetryPolicy(retries=1, **_FAST_RETRY))
        results = SweepExecutor(jobs=2, resilience=options).map(
            workers.exit_once, points
        )
        (outcome,) = options.outcomes
        assert outcome.complete and outcome.retried == 1
        dead_pid = int(marker.read_text(encoding="utf-8"))
        assert results[1].value != dead_pid

    def test_unshippable_result_fails_the_point_not_the_worker(self) -> None:
        points = _points(4, bad_index=1)
        options = ResilienceOptions(on_failure=FailurePolicy.SALVAGE)
        results = SweepExecutor(jobs=2, resilience=options).map(
            workers.unpicklable_at, points
        )
        assert [r.value for r in results] == [
            workers.square(p) for p in points if p.index != 1
        ]
        (failure,) = options.outcomes[0].failures
        assert failure.kind == "error"
        assert "could not be shipped" in failure.detail

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path: Path) -> None:
        script = tmp_path / "pid_sweep.py"
        script.write_text(_PID_SWEEP_SCRIPT, encoding="utf-8")
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        src = str(Path(repro.__file__).resolve().parents[1])
        driver = subprocess.Popen(
            [sys.executable, str(script), str(pid_dir)],
            env=dict(os.environ, PYTHONPATH=src),
        )
        pids: List[int] = []
        try:
            deadline = time.monotonic() + 30.0
            while len(list(pid_dir.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            driver.send_signal(signal.SIGKILL)
            driver.wait(timeout=30)
            pids = [int(p.name) for p in pid_dir.iterdir()]
            assert len(pids) >= 2
            deadline = time.monotonic() + 10.0
            while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if driver.poll() is None:
                driver.kill()
                driver.wait(timeout=30)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize(
        "scenario",
        [
            _sweep_succeeds,
            _sweep_fails_fast_on_error,
            _sweep_fails_fast_on_worker_death,
            _sweep_salvages_a_timeout,
            _sweep_stops_on_a_second_signal,
        ],
        ids=[
            "success",
            "fail-fast-error",
            "fail-fast-worker-died",
            "timeout-salvage",
            "second-signal",
        ],
    )
    def test_no_child_outlives_the_sweep(
        self, tmp_path: Path, scenario: Callable[[Path], None]
    ) -> None:
        scenario(tmp_path)
        assert multiprocessing.active_children() == []


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

    def test_parallel_signal_drains_running_points_to_a_resumable_journal(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "run.journal"
        ran_dir = tmp_path / "ran"
        ran_dir.mkdir()
        points = _points(
            10,
            at=2,
            marker=str(tmp_path / "signalled.marker"),
            ran_dir=str(ran_dir),
            signals=1,
            sleep_s=0.1,
        )
        probe = CountingProbe()
        options = ResilienceOptions(journal=RunJournal(path), probe=probe)
        with pytest.raises(SweepInterrupted, match="cancelled after completing"):
            SweepExecutor(jobs=2, resilience=options).map(
                workers.signal_parent_once, points
            )
        assert multiprocessing.active_children() == []
        (outcome,) = options.outcomes
        assert outcome.cancelled and not outcome.failures
        completed = {r.point.index for r in outcome.results}
        started = {int(p.name.split("-")[1]) for p in ran_dir.iterdir()}
        # Every point that started (the signalling one included) finished
        # and was recorded; nothing was dispatched after the signal.
        assert 2 in completed
        assert started == completed
        assert len(completed) < len(points)
        assert probe.counters["resilience.journal_appends"] == len(completed)
        assert probe.counters["resilience.cancel_signals"] == 1

        resumed = ResilienceOptions(journal=RunJournal(path, resume=True))
        results = SweepExecutor(jobs=2, resilience=resumed).map(
            workers.signal_parent_once, points
        )
        assert [r.value for r in results] == _expected(points)
        assert resumed.outcomes[-1].resumed == len(completed)

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
