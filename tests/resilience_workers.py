"""Module-level, picklable sweep workers for the resilience tests.

At ``jobs >= 2`` the executor runs points on a few supervised worker
processes that it reuses from point to point and replaces when one dies
or is killed, so every worker function the tests hand it must be
importable by name from a real module — closures and lambdas cannot
cross the process boundary. Failure injection is driven entirely by the
point's own parameters (marker-file paths ride inside ``params``), so the
same worker behaves identically whichever process runs it, and a marker
written by one process is seen by the retry in another.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Tuple

from repro.parallel import SweepPoint


def square(point: SweepPoint) -> int:
    """Pure deterministic payload: a function of the envelope only."""
    return point.seed * point.seed + 3 * point.index


def tuple_payload(point: SweepPoint) -> Tuple[int, str, float]:
    """A literal-restorable composite payload (int, str, exact float)."""
    return (point.index, point.label, point.seed / 7.0)


def flaky_until_marker(point: SweepPoint) -> int:
    """Fail the marked point's first attempt; succeed once the marker exists.

    The marker file is created *before* raising, so a retry (same or a
    different process) sees it and recovers — the standard transient-fault
    stand-in.
    """
    if point.index == point.param("fail_index"):
        marker = Path(point.param("marker"))
        if not marker.exists():
            marker.write_text("tripped\n", encoding="utf-8")
            raise RuntimeError(f"injected transient failure at {point.label}")
    return square(point)


def fail_at(point: SweepPoint) -> int:
    """Fail the marked point on every attempt (a permanent fault)."""
    if point.index == point.param("fail_index"):
        raise RuntimeError(f"injected permanent failure at {point.label}")
    return square(point)


def slow_at(point: SweepPoint) -> int:
    """Sleep well past any reasonable watchdog on the marked point."""
    if point.index == point.param("slow_index"):
        time.sleep(point.param("sleep_s"))
    return square(point)


def slow_once(point: SweepPoint) -> int:
    """Hang the marked point's first attempt only (a transient stall).

    The watchdog kills the hung attempt; the retry finds the marker and
    returns immediately with the same deterministic payload.
    """
    if point.index == point.param("slow_index"):
        marker = Path(point.param("marker"))
        if not marker.exists():
            marker.write_text("stalled\n", encoding="utf-8")
            time.sleep(point.param("sleep_s"))
    return square(point)


def interrupt_once(point: SweepPoint) -> int:
    """Raise KeyboardInterrupt at the marked point, first run only.

    The marker keeps the point's params — and therefore its journal key —
    identical across the cancelled run and the resume, so the resume test
    can restore the pre-cancellation checkpoints.
    """
    if point.index == point.param("at"):
        marker = Path(point.param("marker"))
        if not marker.exists():
            marker.write_text("interrupted\n", encoding="utf-8")
            raise KeyboardInterrupt
    return square(point)


def worker_pid(point: SweepPoint) -> int:
    """The pid of the process that ran the point."""
    return os.getpid()


def exit_once(point: SweepPoint) -> int:
    """Kill the worker outright at the marked point, first attempt only.

    The marker records the dying worker's pid before ``os._exit``, so a
    test can check that the retry ran in a different process. Every point
    returns the pid that ran it.
    """
    if point.index == point.param("exit_index"):
        marker = Path(point.param("marker"))
        if not marker.exists():
            marker.write_text(f"{os.getpid()}\n", encoding="utf-8")
            os._exit(1)
    return os.getpid()


def signal_parent_once(point: SweepPoint) -> int:
    """Send ``signals`` SIGINTs to the sweep's parent at the marked point, once.

    Every point first drops a ``ran-<index>`` file in ``ran_dir`` and then
    takes ``sleep_s``, so a test can compare the points that started with
    the points the parent recorded. The marked point keeps running after
    the signals and returns normally: after one signal the parent must
    drain it, not lose it; after two it must kill it. The signals are
    spaced so the parent's handler sees each one.
    """
    Path(point.param("ran_dir"), f"ran-{point.index}").touch()
    if point.index == point.param("at"):
        marker = Path(point.param("marker"))
        if not marker.exists():
            marker.write_text("signalled\n", encoding="utf-8")
            for _ in range(point.param("signals")):
                os.kill(os.getppid(), signal.SIGINT)
                time.sleep(0.2)
    time.sleep(point.param("sleep_s"))
    return square(point)


def unpicklable_at(point: SweepPoint) -> Any:
    """Return a value that cannot cross the pipe at the marked point."""
    if point.index == point.param("bad_index"):
        return threading.Lock()
    return square(point)
