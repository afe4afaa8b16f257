"""Fixed pure-Python calibration loop for drift-normalised host time.

The simulator is interpreter-bound, so a shared or throttled host slows it
by roughly the factor it slows other bytecode of the same kind. Timing this
loop right before each replicate and dividing the replicate's host time by
it cancels much of that drift (``norm_cost_*`` in the benchmark report).

The loop is a toy switch: small objects allocated per step, method calls
on port objects that hold deques, tuple-keyed dict counters and a heap of
release times — the operations the event kernel spends its time on. A
tight loop of inline arithmetic tracked the simulator worse on a noisy
2-vCPU VM, because host interference slows call- and allocation-heavy code
differently. It deliberately imports nothing from ``repro``, so a change
to the simulator can never move the yardstick it is measured against.

Set-up time has its own yardstick, a bare interpreter start
(:func:`interpreter_start`), for the same reason.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Steps per calibration call (about 8 ms on a 2-vCPU x86 VM).
ROUNDS = 6_000
#: Host time of one calibration call on the reference host: a 2-vCPU x86
#: VM when quiet (the same VM took 9.5 ms when busy). A host time divided
#: by the calibration time and multiplied by this reads as time on the
#: quiet reference host (``warm_sweep_ms``). It is a fixed constant, so it
#: never drifts.
REFERENCE_S = 0.005
#: Host time of a bare interpreter start (:func:`interpreter_start`) on the
#: same quiet VM (0.06-0.10 s when busy): the yardstick for ``setup_s``.
START_REFERENCE_S = 0.06
#: Ports in the toy switch (a power of two; steps index them by mask).
_PORTS = 64


class _Item:
    __slots__ = ("src", "dst", "created", "injected")

    def __init__(self, src: int, dst: int, created: int) -> None:
        self.src = src
        self.dst = dst
        self.created = created
        self.injected: Optional[int] = None


class _Port:
    __slots__ = ("busy_until", "queue", "served")

    def __init__(self) -> None:
        self.busy_until = 0
        self.queue: Deque[_Item] = deque()
        self.served = 0

    def offer(self, item: _Item, now: int) -> bool:
        if len(self.queue) >= 4:
            return False
        item.injected = now
        self.queue.append(item)
        return True

    def head(self) -> Optional[_Item]:
        return self.queue[0] if self.queue else None

    def pop(self, now: int) -> _Item:
        item = self.queue.popleft()
        self.busy_until = now + 9
        self.served += 1
        return item


def calibration_loop(rounds: int = ROUNDS) -> float:
    """Run the fixed loop once and return its host time in seconds."""
    start = time.perf_counter()
    ports = [_Port() for _ in range(_PORTS)]
    counts: Dict[Tuple[int, int], int] = {}
    releases: List[Tuple[int, int]] = []
    for step in range(rounds):
        port = ports[(step * 37) & (_PORTS - 1)]
        item = _Item(step & (_PORTS - 1), (step * 7) & 7, step)
        if not port.offer(item, step):
            head = port.head()
            if head is not None and port.busy_until <= step:
                port.pop(step)
                heapq.heappush(releases, (step + 9, head.src))
        key = (item.src, item.dst)
        counts[key] = counts.get(key, 0) + 1
        while releases and releases[0][0] <= step:
            heapq.heappop(releases)
    return time.perf_counter() - start


def interpreter_start() -> float:
    """Host time of a fresh interpreter that runs nothing (``-c pass``).

    A set-up is mostly process start and imports, which the loop above
    tracks badly: on a 2-vCPU VM, set-up time divided by the loop spread
    0.30 over 40 probes, and divided by this 0.10.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start
