"""Module-level, picklable sweep workers for the resilience tests.

The resilient executor fans each point out into its own worker process,
so every worker function the tests hand it must be importable by name
from a real module — closures and lambdas cannot cross the process
boundary. Failure injection is driven entirely by the point's own
parameters (marker-file paths ride inside ``params``), so the same
worker behaves identically whichever process runs it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Tuple

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
