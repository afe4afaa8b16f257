"""Kill-mid-run resume determinism (the PR 5 acceptance property).

Three escalating proofs that a sweep killed mid-run and resumed from its
journal merges to the *bit-identical* result of an uninterrupted run:

1. a real ``SIGKILL`` of the sweep process while workers are in flight —
   the journal left on disk parses cleanly (atomic flush), and the
   resumed merge hash equals an uninterrupted serial run's;
2. the Fig. 4 experiment sweep with an injected point crash (the CI chaos
   hook), salvaged, then resumed — at ``jobs`` 1, 2, and 4;
3. the faults-resilience sweep likewise, proving keyed-hash fault draws
   carry no schedule-dependent state across the kill/resume boundary
   (referenced from docs/FAULTS.md).

A journal edited on disk between the kill and the resume must fail the
resume loudly rather than merge the edited value.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.catalog import entry_integrity
from repro.errors import ConfigError, SimulationError
from repro.experiments.faults_resilience import run_faults_resilience
from repro.experiments.fig4_bandwidth import run_fig4
from repro.parallel import CHAOS_ENV
from repro.resilience import (
    FailurePolicy,
    ResilienceOptions,
    RetryPolicy,
    RunJournal,
    journal_hashes,
)

_REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Driver script for the SIGKILL test. Runs in its own interpreter so the
#: test can kill it outright; the worker lives in ``__main__`` in every
#: invocation, keeping the journal's point keys stable across runs.
_SWEEP_SCRIPT = """\
import argparse
import time

from repro.parallel import SweepExecutor, SweepPoint, result_hash
from repro.resilience import ResilienceOptions, RunJournal


def work(point):
    time.sleep(point.param("sleep_s"))
    return (point.index, point.seed * point.seed + 3 * point.index)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal", required=True)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--sleep", type=float, required=True)
    args = parser.parse_args()
    points = [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, sleep_s=args.sleep)
        for i in range(8)
    ]
    journal = RunJournal(args.journal, resume=args.resume)
    options = ResilienceOptions(journal=journal)
    executor = SweepExecutor(jobs=args.jobs, resilience=options)
    results = executor.map(work, points)
    print(result_hash([r.value for r in results]))


if __name__ == "__main__":
    main()
"""


def _run_sweep_script(script: Path, *args: str) -> str:
    """Run the driver to completion and return the printed merge hash."""
    env = dict(os.environ, PYTHONPATH=_REPO_SRC)
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


class TestSigkillMidSweep:
    def test_sigkill_then_resume_is_bit_identical_to_serial(
        self, tmp_path: Path
    ) -> None:
        script = tmp_path / "sweep_driver.py"
        script.write_text(_SWEEP_SCRIPT, encoding="utf-8")
        journal = tmp_path / "killed.journal"
        sleep = "0.2"

        env = dict(os.environ, PYTHONPATH=_REPO_SRC)
        victim = subprocess.Popen(
            [
                sys.executable,
                str(script),
                "--journal",
                str(journal),
                "--jobs",
                "2",
                "--sleep",
                sleep,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            # Wait for at least two checkpoints, then kill without warning.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text(
                    encoding="utf-8"
                ).count('"kind": "entry"') >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep never journaled two points")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)

        # The half-written journal must parse cleanly (atomic appends) and
        # must actually be partial — the kill landed mid-run.
        partial = RunJournal(journal, resume=True)
        assert 2 <= partial.entry_count < 8

        resumed_hash = _run_sweep_script(
            script,
            "--journal",
            str(journal),
            "--resume",
            "--jobs",
            "4",
            "--sleep",
            sleep,
        )
        clean_journal = tmp_path / "clean.journal"
        clean_hash = _run_sweep_script(
            script,
            "--journal",
            str(clean_journal),
            "--jobs",
            "1",
            "--sleep",
            sleep,
        )
        assert resumed_hash == clean_hash
        assert journal_hashes(journal) == journal_hashes(clean_journal)

    def test_resume_without_a_journal_fails_loudly(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="cannot resume"):
            RunJournal(tmp_path / "never-written.journal", resume=True)


#: Small-but-real sweep shapes shared by the experiment-level tests.
_FIG4_RATES = (0.05, 0.1, 0.2, 0.4)
_FIG4_HORIZON = 4_000
_FAULT_SCENARIOS = ("none", "input-stall", "packet-drop")
_FAULT_HORIZON = 2_000


@pytest.fixture(scope="module")
def fig4_clean(tmp_path_factory: pytest.TempPathFactory):
    """Uninterrupted serial fig4 run, journaled, computed once."""
    path = tmp_path_factory.mktemp("fig4") / "clean.journal"
    options = ResilienceOptions(journal=RunJournal(path))
    result = run_fig4(
        "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=1, resilience=options
    )
    return result, path


@pytest.fixture(scope="module")
def faults_clean(tmp_path_factory: pytest.TempPathFactory):
    """Uninterrupted serial faults-resilience run, journaled, computed once."""
    path = tmp_path_factory.mktemp("faults") / "clean.journal"
    options = ResilienceOptions(journal=RunJournal(path))
    result = run_faults_resilience(
        horizon=_FAULT_HORIZON,
        jobs=1,
        scenarios=list(_FAULT_SCENARIOS),
        resilience=options,
    )
    return result, path


@pytest.mark.parametrize("jobs", [1, 2, 4])
class TestExperimentCrashResume:
    def test_fig4_salvage_then_resume_matches_clean_serial(
        self,
        jobs: int,
        tmp_path: Path,
        fig4_clean,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        clean_result, clean_journal = fig4_clean
        journal = tmp_path / "chaos.journal"

        monkeypatch.setenv(CHAOS_ENV, "fig4:ssvc@0.2")
        salvage = ResilienceOptions(
            journal=RunJournal(journal),
            on_failure=FailurePolicy.SALVAGE,
            retry=RetryPolicy(retries=1, backoff_base=0.001, backoff_cap=0.01),
        )
        partial = run_fig4(
            "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=jobs, resilience=salvage
        )
        assert partial.completed_rates == (0.05, 0.1, 0.4)
        assert salvage.outcomes[0].failures[0].kind == "chaos"

        monkeypatch.delenv(CHAOS_ENV)
        resume = ResilienceOptions(journal=RunJournal(journal, resume=True))
        resumed = run_fig4(
            "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=jobs, resilience=resume
        )
        assert resume.outcomes[0].resumed == len(_FIG4_RATES) - 1

        assert resumed.accepted == clean_result.accepted
        assert resumed.total_throughput == clean_result.total_throughput
        assert resumed.grants == clean_result.grants
        assert journal_hashes(journal) == journal_hashes(clean_journal)

    def test_faults_salvage_then_resume_matches_clean_serial(
        self,
        jobs: int,
        tmp_path: Path,
        faults_clean,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        clean_result, clean_journal = faults_clean
        journal = tmp_path / "chaos.journal"

        monkeypatch.setenv(CHAOS_ENV, "faults:packet-drop")
        salvage = ResilienceOptions(
            journal=RunJournal(journal), on_failure=FailurePolicy.SALVAGE
        )
        partial = run_faults_resilience(
            horizon=_FAULT_HORIZON,
            jobs=jobs,
            scenarios=list(_FAULT_SCENARIOS),
            resilience=salvage,
        )
        assert [o.name for o in partial.outcomes] == ["none", "input-stall"]
        assert salvage.outcomes[0].failures[0].kind == "chaos"

        monkeypatch.delenv(CHAOS_ENV)
        resume = ResilienceOptions(journal=RunJournal(journal, resume=True))
        resumed = run_faults_resilience(
            horizon=_FAULT_HORIZON,
            jobs=jobs,
            scenarios=list(_FAULT_SCENARIOS),
            resilience=resume,
        )
        assert resume.outcomes[0].resumed == len(_FAULT_SCENARIOS) - 1

        assert [o.name for o in resumed.outcomes] == list(_FAULT_SCENARIOS)
        for got, want in zip(resumed.outcomes, clean_result.outcomes):
            assert got.worst_gb_shortfall == want.worst_gb_shortfall
            assert got.gl_max_waiting == want.gl_max_waiting
            assert got.abuser_rate == want.abuser_rate
        assert journal_hashes(journal) == journal_hashes(clean_journal)
    # The journal-hash equalities above are exactly the merged result_hash
    # identity: journal_hashes digests repr(value) + NUL in index order,
    # byte-for-byte what repro.parallel.result_hash computes live.


def _edit_point(
    path: Path, index: int, edit: Callable[[Dict[str, Any]], Dict[str, Any]]
) -> None:
    """Rewrite the on-disk record of point ``index`` with ``edit(record)``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "value_repr" in record and record["index"] == index:
            record.update(edit(record))
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTamperedJournal:
    """``--resume`` verifies every journaled point before serving it."""

    def _resume(self, journal: Path) -> ResilienceOptions:
        resume = ResilienceOptions(journal=RunJournal(journal, resume=True))
        with pytest.raises(SimulationError, match="journal determinism violation"):
            run_fig4(
                "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=1, resilience=resume
            )
        return resume

    def test_edited_value_fails_the_resume(self, tmp_path: Path, fig4_clean) -> None:
        journal = tmp_path / "edited.journal"
        shutil.copyfile(fig4_clean[1], journal)
        # A well-formed Fig. 4 payload, so only verification can tell.
        _edit_point(
            journal, 2, lambda record: {"value_repr": "((0.0,), 0.0, 999)"}
        )
        resume = self._resume(journal)
        # The sweep stopped before any point was served.
        assert resume.outcomes == []

    def test_edited_envelope_fails_the_resume(
        self, tmp_path: Path, fig4_clean
    ) -> None:
        # Even with its integrity hash recomputed, an entry whose envelope
        # no longer matches the live point is refused.
        journal = tmp_path / "edited.journal"
        shutil.copyfile(fig4_clean[1], journal)

        def forge(record: Dict[str, Any]) -> Dict[str, Any]:
            envelope = record["envelope"].replace("fig4:ssvc@0.2", "fig4:ssvc@0.3")
            assert envelope != record["envelope"]
            return {
                "envelope": envelope,
                "integrity": entry_integrity(envelope, record["value_repr"]),
            }

        _edit_point(journal, 2, forge)
        resume = self._resume(journal)
        assert resume.outcomes == []
