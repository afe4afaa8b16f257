"""Deterministic fan-out of sweep points: one supervised execution path.

All process-based parallelism in this repository goes through
:class:`SweepExecutor` (lint rule RL009 forbids importing
``multiprocessing``/``concurrent.futures`` anywhere else). The executor
guarantees that for a fixed point list the merged results are identical —
value for value, in order — whether it runs with 1 job, 2, or 40: each
point carries its own seed, workers never share mutable state, and
results merge by the point's ``index``, not completion order.

Every sweep takes the same path. ``jobs=1`` runs each point inline in
this process; ``jobs >= 2`` runs the points on up to ``jobs`` supervised
worker processes, each forked on first dispatch and reused for point
after point until the sweep ends. A worker is killed and replaced only
when the watchdog times its point out, when it dies, on a fail-fast
abort or on a second signal, so a hung point never takes other points
with it. On top of that path the
:class:`repro.resilience.ResilienceOptions` bundle adds checkpointing,
cache hits, retries, per-point timeouts, and salvage:

* a point that raises is reported as a
  :class:`~repro.errors.SimulationError` naming the point, its failure
  kind (``[error]``, ``[worker-died]``, ``[timeout]``) and the worker's
  traceback; a worker process that dies outright is detected through its
  closed pipe. Neither case hangs the parent;
* completed points are checkpointed to the run journal (and the run
  catalog) the moment they finish, and failed points are retried under
  the deterministic backoff policy;
* the first SIGINT/SIGTERM drains — running points finish and are
  recorded, nothing new starts — and the sweep then raises
  :class:`~repro.errors.SweepInterrupted`; the second signal stops at
  once, still leaving a consistent, resumable journal;
* determinism survives all of it because every point's seed is stateless:
  a retried or resumed point recomputes the same bits, and the journal
  *asserts* that on every re-execution.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from multiprocessing.connection import Connection, wait as _connection_wait
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..catalog import RunCatalog
from ..errors import ConfigError, SimulationError, SweepInterrupted
from ..resilience.keys import point_key, sweep_id, worker_name
from ..resilience.options import ResilienceOptions
from ..resilience.outcome import PointFailure, SweepOutcome
from ..resilience.policy import FailurePolicy
from .envelope import PointResult, SweepPoint

#: A worker function: takes one envelope, returns a picklable payload.
PointFn = Callable[[SweepPoint], Any]

#: Environment hook for chaos testing: a sweep point whose ``label``
#: equals this variable's value fails every attempt (kind ``chaos``)
#: without executing. The CI chaos job sets it to knock a hole into a
#: salvage run, then resumes with it unset and diffs the merged hash
#: against a clean run.
CHAOS_ENV = "REPRO_CHAOS_FAIL_LABEL"


def _worker_loop(fn: PointFn, conn: Connection, parent_end: Connection) -> None:
    """Worker-process body: run points from the pipe until ``None`` or EOF.

    Ships ``(True, value)`` or ``(False, traceback_text)`` back per point.
    If the *value* itself cannot be pickled through the pipe, a failure
    record is shipped instead; if even that fails the worker exits, so the
    parent sees EOF rather than hanging on a silent worker. The inherited
    copy of the parent's end is closed first: otherwise the worker itself
    would keep its pipe open and never see EOF if the parent is killed.
    SIGINT is ignored, because the parent owns cancellation: a Ctrl-C sent
    to the whole process group lets running points finish while the
    parent drains. SIGTERM gets its default back (a forked worker would
    otherwise inherit the parent's draining handler), so ``terminate()``
    stops a worker.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            point = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        if point is None:
            return
        try:
            payload: Tuple[bool, Any] = (True, fn(point))
        except BaseException as exc:  # noqa: BLE001 - shipped back, judged by parent
            payload = (
                False,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        try:
            conn.send(payload)
        except Exception as exc:  # result unpicklable: ship the reason instead
            try:
                conn.send(
                    (
                        False,
                        f"point result could not be shipped to the parent: "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
            except Exception:  # noqa: BLE001 - exit; the parent reports worker-died
                return


def _chaos_label() -> Optional[str]:
    """The label forced to fail by the chaos env hook, if set."""
    return os.environ.get(CHAOS_ENV) or None


class SweepExecutor:
    """Map a function over sweep points, optionally across processes.

    Args:
        jobs: worker process count. ``1`` (the default) runs every point
            inline in this process; ``>= 2`` runs the points on up to
            ``jobs`` supervised worker processes, reused from point to
            point for the whole sweep.
        resilience: journal/catalog/retry/salvage bundle. ``None`` runs
            with the defaults: no journal, no catalog, no retries,
            fail-fast.

    Attributes:
        last_fallback: why the most recent :meth:`map`/:meth:`run` call
            ran inline despite ``jobs > 1`` (``None`` when it fanned out
            or when ``jobs == 1``).
    """

    def __init__(
        self, jobs: int = 1, resilience: Optional[ResilienceOptions] = None
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.resilience = resilience
        self.last_fallback: Optional[str] = None

    def map(self, fn: PointFn, points: Sequence[SweepPoint]) -> List[PointResult]:
        """Run ``fn`` over every point; results in original point order.

        The results of :meth:`run`. Under
        :attr:`~repro.resilience.FailurePolicy.SALVAGE` the list has
        explicit holes (the outcome, appended to ``resilience.outcomes``,
        says exactly which points are missing and why).

        Raises:
            ConfigError: on duplicate point indices.
            SimulationError: when any point fails (after exhausting its
                retry budget) under fail-fast; the message names the
                failed point(s).
            SweepInterrupted: when SIGINT/SIGTERM cancelled the sweep.
        """
        return self.run(fn, points).results

    def run(self, fn: PointFn, points: Sequence[SweepPoint]) -> SweepOutcome:
        """Run the sweep: journal, catalog, retries, watchdog, salvage, drain.

        Always returns a :class:`~repro.resilience.SweepOutcome` (also
        appended to ``resilience.outcomes`` when a bundle is attached) —
        except under fail-fast with an exhausted point, where it raises
        after appending the outcome, and on cancellation, where it raises
        :class:`~repro.errors.SweepInterrupted` carrying the outcome.
        """
        self.last_fallback = None
        pts = self._validated(points)
        options = self.resilience if self.resilience is not None else ResilienceOptions()
        return _SweepRun(self, fn, pts, options).execute()

    @staticmethod
    def _validated(points: Sequence[SweepPoint]) -> List[SweepPoint]:
        pts = list(points)
        seen: Dict[int, str] = {}
        for point in pts:
            if point.index in seen:
                raise ConfigError(
                    f"duplicate sweep point index {point.index}: "
                    f"{seen[point.index]!r} vs {point.label!r}"
                )
            seen[point.index] = point.label
        return pts

    @staticmethod
    def _pickle_check(fn: PointFn, pts: Sequence[SweepPoint]) -> Optional[str]:
        """A reason to fall back to serial, or None when fan-out is safe."""
        try:
            pickle.dumps(fn)
        except Exception:
            return f"worker function {getattr(fn, '__name__', fn)!r} is not picklable"
        try:
            pickle.dumps(pts)
        except Exception:
            return "sweep points are not picklable"
        return None


class _Worker:
    """One supervised worker process: its pipe and the point it is running.

    ``point`` is ``None`` while the worker is idle; ``attempt`` and
    ``deadline`` describe the point it is running.
    """

    __slots__ = ("proc", "conn", "point", "attempt", "deadline")

    def __init__(self, proc: BaseProcess, conn: Connection) -> None:
        self.proc = proc
        self.conn = conn
        self.point: Optional[SweepPoint] = None
        self.attempt = 0
        self.deadline: Optional[float] = None


class _SweepRun:
    """State machine for one sweep execution.

    Separated from :class:`SweepExecutor` so every piece of per-run state
    (queues, signal counters, outcome accounting) lives and dies with one
    run.
    """

    def __init__(
        self,
        executor: SweepExecutor,
        fn: PointFn,
        pts: List[SweepPoint],
        options: ResilienceOptions,
    ) -> None:
        self.executor = executor
        self.fn = fn
        self.pts = pts
        self.options = options
        self.probe = options.probe
        self.journal = options.journal
        self.catalog = options.catalog
        self.fn_name = worker_name(fn)
        self.keys: Dict[int, str] = {
            point.index: point_key(self.fn_name, point) for point in pts
        }
        self.sweep_id = sweep_id(self.fn_name, [self.keys[p.index] for p in pts])
        #: attached stores in lookup order: journal hits resume, catalog
        #: hits are cache hits
        self.stores: List[RunCatalog] = [
            store for store in (self.journal, self.catalog) if store is not None
        ]
        for store in self.stores:
            store.register_sweep(self.fn_name, pts, self.sweep_id)
        self.outcome = SweepOutcome(
            sweep=self.sweep_id,
            total_points=len(pts),
            journal_path=self.journal.path if self.journal is not None else None,
            catalog_path=self.catalog.path if self.catalog is not None else None,
        )
        self.values: Dict[int, Any] = {}
        self.failures: Dict[int, PointFailure] = {}
        #: points (with attempt number) ready to launch now
        self.runnable: List[Tuple[SweepPoint, int]] = []
        #: retries waiting out their backoff: (monotonic ready time, point, attempt)
        self.delayed: List[Tuple[float, SweepPoint, int]] = []
        self.workers: List[_Worker] = []
        self.cancel_signals = 0
        self.aborted = False
        self.chaos = _chaos_label()

    # ----------------------------------------------------------------- probes

    def _count(self, name: str, delta: int = 1) -> None:
        if self.probe is not None:
            self.probe.count(name, delta)

    def _event(self, kind: str, **fields: Any) -> None:
        if self.probe is not None and self.probe.trace:
            self.probe.event(kind, 0, **fields)

    # ------------------------------------------------------------- lifecycle

    def execute(self) -> SweepOutcome:
        self._restore()
        pending = [p for p in self.pts if p.index not in self.values]
        self.runnable = [(point, 1) for point in pending]
        handlers = self._install_signal_handlers()
        try:
            if self._serial_reason(pending) is not None:
                self._drain_serial()
            else:
                self._drain_parallel()
        # Not swallowed: _finish() below converts the cancellation into a
        # counted, journaled SweepInterrupted outcome.
        # reprolint: disable=swallowed-without-record
        except KeyboardInterrupt:
            # Second signal (or a plain Ctrl-C raise): stop immediately but
            # still leave a consistent, resumable journal behind.
            self.cancel_signals = max(self.cancel_signals, 1)
            self._stop_workers()
        finally:
            self._restore_signal_handlers(handlers)
        return self._finish()

    def _serial_reason(self, pending: List[SweepPoint]) -> Optional[str]:
        """Why the sweep runs in-process, or None to fan out."""
        if self.executor.jobs == 1:
            return "jobs=1"
        # A lone point gains no overlap, but a watchdog still needs a worker.
        if len(pending) < 2 and (
            not pending or self.options.retry.point_timeout is None
        ):
            reason = "fewer than 2 points"
        else:
            reason = SweepExecutor._pickle_check(self.fn, pending)
            if reason is None:
                return None
        self.executor.last_fallback = reason
        self.outcome.notes.append(f"ran serially: {reason}")
        return reason

    def _install_signal_handlers(self) -> List[Tuple[int, Any]]:
        """First SIGINT/SIGTERM drains; the second force-terminates.

        Draining means: workers already running finish and are journaled,
        nothing new launches, and on the serial path the current
        in-process point completes. The second signal raises
        ``KeyboardInterrupt`` wherever execution is, which the
        :meth:`execute` wrapper turns into an immediate (but still
        journal-consistent) stop.
        """
        if threading.current_thread() is not threading.main_thread():
            return []

        def _handler(signum: int, frame: Any) -> None:
            self.cancel_signals += 1
            self._count("resilience.cancel_signals")
            if self.cancel_signals >= 2:
                raise KeyboardInterrupt

        saved: List[Tuple[int, Any]] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            saved.append((signum, signal.signal(signum, _handler)))
        return saved

    @staticmethod
    def _restore_signal_handlers(saved: List[Tuple[int, Any]]) -> None:
        for signum, handler in saved:
            signal.signal(signum, handler)

    # ---------------------------------------------------------------- restore

    def _restore(self) -> None:
        """Serve already-stored points as verified hits, store by store.

        The journal is asked first, so a point in both stores counts as
        resumed; a catalog hit counts as cached. Either way the hit is
        recorded into every other attached store, so the stores converge:
        journal hits backfill the catalog, and catalog hits keep a fresh
        journal a complete record of the sweep for ``journal_hashes``
        diffs and future ``--resume`` runs. Every hit passed the store's
        bit-identity verification (envelope match + integrity hash + repr
        round-trip) or raised a determinism violation instead of being
        served.
        """
        for point in self.pts:
            for store in self.stores:
                hit, value = store.lookup(self.fn_name, point)
                if hit:
                    break
                if store is self.catalog:
                    self._count("catalog.misses")
            else:
                continue
            self.values[point.index] = value
            if store is self.journal:
                self.outcome.resumed += 1
                self._count("resilience.points_resumed")
                self._event(
                    "resilience.resume", point=point.index, label=point.label
                )
            else:
                self.outcome.cache_hits += 1
                self._count("catalog.hits")
                self._event("catalog.hit", point=point.index, label=point.label)
            self._record(point, value, source=store)

    def _record(
        self, point: SweepPoint, value: Any, source: Optional[RunCatalog] = None
    ) -> None:
        """Record ``value`` into every attached store but ``source``.

        Re-recording a stored point raises ``SimulationError`` on any bit
        difference — the resume/retry determinism assertion. Each probe
        count lands only after its entry is fsync'd.
        """
        journal = None if self.journal is source else self.journal
        catalog = None if self.catalog is source else self.catalog
        if journal is not None:
            if journal.record(self.sweep_id, self.keys[point.index], point, value):
                self._count("resilience.journal_appends")
        if catalog is not None:
            if catalog.record(self.fn_name, self.sweep_id, point, value):
                self._count("catalog.appends")

    # ----------------------------------------------------------------- serial

    def _drain_serial(self) -> None:
        if self.options.retry.point_timeout is not None and self.runnable:
            note = (
                "point_timeout not enforced on the serial path "
                "(points run in-process; use --jobs >= 2 for the watchdog)"
            )
            if note not in self.outcome.notes:
                self.outcome.notes.append(note)
        while self.runnable or self.delayed:
            if self.cancel_signals:
                return
            if not self.runnable:
                ready_at = min(entry[0] for entry in self.delayed)
                delay = ready_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                now = time.monotonic()
                due = [e for e in self.delayed if e[0] <= now]
                self.delayed = [e for e in self.delayed if e[0] > now]
                self.runnable.extend((point, attempt) for _, point, attempt in due)
                continue
            point, attempt = self.runnable.pop(0)
            if self.chaos is not None and point.label == self.chaos:
                self._attempt_failed(
                    point,
                    attempt,
                    "chaos",
                    f"chaos hook: {CHAOS_ENV}={self.chaos!r} matched label",
                )
                continue
            try:
                value = self.fn(point)
            except KeyboardInterrupt:
                self.cancel_signals = max(self.cancel_signals, 1)
                return
            except Exception as exc:  # noqa: BLE001 - judged by the retry policy
                detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                self._attempt_failed(point, attempt, "error", detail)
                continue
            self._point_succeeded(point, attempt, value)

    # --------------------------------------------------------------- parallel

    def _busy(self) -> List[_Worker]:
        return [worker for worker in self.workers if worker.point is not None]

    def _drain_parallel(self) -> None:
        ctx: BaseContext = multiprocessing.get_context()
        try:
            while self.runnable or self.delayed or self._busy():
                now = time.monotonic()
                if self.cancel_signals == 0:
                    due = [e for e in self.delayed if e[0] <= now]
                    self.delayed = [e for e in self.delayed if e[0] > now]
                    self.runnable.extend((point, attempt) for _, point, attempt in due)
                    while self.runnable and len(self._busy()) < self.executor.jobs:
                        point, attempt = self.runnable.pop(0)
                        self._dispatch(ctx, point, attempt)
                busy = self._busy()
                if not busy:
                    if self.cancel_signals:
                        return  # drained; queued work is intentionally left behind
                    if self.delayed:
                        # sleep in short slices so signals stay responsive
                        ready_at = min(entry[0] for entry in self.delayed)
                        time.sleep(min(max(ready_at - time.monotonic(), 0.0), 0.2))
                    continue
                ready = set(
                    _connection_wait(
                        [worker.conn for worker in busy],
                        timeout=self._wait_timeout(now, busy),
                    )
                )
                for worker in busy:
                    if worker.conn in ready:
                        self._reap(worker)
                self._enforce_deadlines()
        finally:
            self._stop_workers()

    def _dispatch(self, ctx: BaseContext, point: SweepPoint, attempt: int) -> None:
        """Hand a point to an idle worker, forking one if none is idle."""
        if self.chaos is not None and point.label == self.chaos:
            self._attempt_failed(
                point,
                attempt,
                "chaos",
                f"chaos hook: {CHAOS_ENV}={self.chaos!r} matched label",
            )
            return
        worker = next((w for w in self.workers if w.point is None), None)
        if worker is None:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_loop,
                args=(self.fn, child_conn, parent_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            worker = _Worker(proc, parent_conn)
            self.workers.append(worker)
        timeout = self.options.retry.point_timeout
        worker.point = point
        worker.attempt = attempt
        worker.deadline = None if timeout is None else time.monotonic() + timeout
        # An idle worker that died refuses the send; its pipe then reads
        # EOF, and _reap charges the point a worker-died attempt.
        with contextlib.suppress(OSError):
            worker.conn.send(point)

    def _wait_timeout(self, now: float, busy: List[_Worker]) -> float:
        bounds = [0.5]
        bounds.extend(w.deadline - now for w in busy if w.deadline is not None)
        bounds.extend(ready_at - now for ready_at, _, _ in self.delayed)
        return min(0.5, max(0.01, min(bounds)))

    def _reap(self, worker: _Worker) -> None:
        """A busy worker's pipe is readable: collect its result or its death."""
        point, attempt = worker.point, worker.attempt
        assert point is not None
        try:
            ok, payload = worker.conn.recv()
        except (EOFError, OSError):
            worker.proc.join(1.0)
            detail = (
                f"worker process exited (code {worker.proc.exitcode}) "
                "without reporting a result"
            )
            self._kill(worker)
            self._attempt_failed(point, attempt, "worker-died", detail)
            return
        worker.point = None
        if ok:
            self._point_succeeded(point, attempt, payload)
        else:
            self._attempt_failed(point, attempt, "error", str(payload))

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker in self._busy():
            if worker.deadline is None or now < worker.deadline:
                continue
            point, attempt = worker.point, worker.attempt
            assert point is not None
            self._kill(worker)
            self.outcome.timeouts += 1
            self._count("resilience.timeouts")
            self._event(
                "resilience.timeout",
                point=point.index,
                label=point.label,
                attempt=attempt,
                timeout_s=self.options.retry.point_timeout,
            )
            self._attempt_failed(
                point,
                attempt,
                "timeout",
                f"exceeded point_timeout={self.options.retry.point_timeout}s "
                f"(attempt {attempt})",
            )

    def _kill(self, worker: _Worker) -> None:
        """Drop a worker from the pool and make sure its process is gone."""
        self.workers.remove(worker)
        worker.conn.close()
        worker.proc.kill()
        worker.proc.join()

    def _stop_workers(self) -> None:
        """End of sweep, on any path: idle workers stop, busy ones are killed."""
        idle = [worker for worker in self.workers if worker.point is None]
        for worker in idle:
            with contextlib.suppress(OSError):
                worker.conn.send(None)
        for worker in idle:
            worker.proc.join(1.0)
        for worker in list(self.workers):
            self._kill(worker)

    # ------------------------------------------------------------- accounting

    def _point_succeeded(self, point: SweepPoint, attempt: int, value: Any) -> None:
        self._record(point, value)
        self.values[point.index] = value
        self._count("resilience.points_completed")
        if attempt > 1:
            self._event(
                "resilience.recovered",
                point=point.index,
                label=point.label,
                attempts=attempt,
            )

    def _attempt_failed(
        self, point: SweepPoint, attempt: int, kind: str, detail: str
    ) -> None:
        policy = self.options.retry
        if attempt <= policy.retries:
            delay = policy.delay_before(point.index, attempt)
            self.outcome.retried += 1
            self._count("resilience.retries")
            self._event(
                "resilience.retry",
                point=point.index,
                label=point.label,
                attempt=attempt,
                failure_kind=kind,
                delay_s=round(delay, 6),
            )
            self.delayed.append((time.monotonic() + delay, point, attempt + 1))
            return
        failure = PointFailure(
            index=point.index,
            label=point.label,
            attempts=attempt,
            kind=kind,
            detail=detail,
        )
        self.failures[point.index] = failure
        self._count("resilience.failures")
        self._event(
            "resilience.failure",
            point=point.index,
            label=point.label,
            attempts=attempt,
            failure_kind=kind,
        )
        if self.options.on_failure is FailurePolicy.FAIL_FAST:
            self.aborted = True
            self._stop_workers()
            self.runnable = []
            self.delayed = []
            self._finish()
            raise SimulationError(
                f"sweep point {point.index} ({point.label}) failed after "
                f"{attempt} attempt(s) [{kind}]:\n{detail}"
            )

    def _finish(self) -> SweepOutcome:
        self.outcome.results = [
            PointResult(point, self.values[point.index])
            for point in self.pts
            if point.index in self.values
        ]
        self.outcome.failures = [
            self.failures[point.index]
            for point in self.pts
            if point.index in self.failures
        ]
        if self.cancel_signals:
            self.outcome.cancelled = True
            self._count("resilience.cancelled")
            self._event("resilience.cancel", sweep=self.sweep_id)
        self.options.outcomes.append(self.outcome)
        if self.cancel_signals:
            raise SweepInterrupted(
                f"sweep {self.sweep_id} cancelled after completing "
                f"{self.outcome.completed}/{self.outcome.total_points} points"
                + (
                    f"; resume with --resume {self.journal.path}"
                    if self.journal is not None
                    else ""
                ),
                outcome=self.outcome,
            )
        # A missing point that is neither a failure, an abort casualty, nor
        # cancellation is an executor bug — surface it loudly.
        holes = [
            p
            for p in self.pts
            if p.index not in self.values and p.index not in self.failures
        ]
        if holes and not self.aborted:
            names = ", ".join(p.label for p in holes)
            raise SimulationError(f"sweep lost results for points [{names}]")
        return self.outcome
