"""Outside-in layer spans: time calls into ``repro``'s public functions.

The benchmark never edits the simulator to trace it. Instead a
:class:`Tracer` replaces selected methods on their classes with thin
wrappers for the duration of one traced run and restores the originals
afterwards, so an untraced run executes exactly the code a user runs.

Each wrapper records one span per call: its duration, plus the part of
that interval covered by nested wrapped calls (its children). A target's
*self time* is duration minus children, and a layer's self time is the sum
over its targets. Because every wrapped call is a child of whatever wrapped
call was active when it started, the self times of all layers plus the
root's (``Simulation.run``'s own loop, reported as ``kernel``) add up to
the root span's duration — nothing is counted twice or dropped.

Spans are aggregated in memory per target (calls, total and self seconds)
rather than stored one by one: a traced replicate makes hundreds of
thousands of calls, and the per-layer report needs only the sums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``observe(counters, args, result)``: updates layer counters after an
#: outermost call in the target's layer returned ``result``.
Observer = Callable[[Dict[str, float], Tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class Target:
    """One method to wrap: ``cls.name``, attributed to ``layer``."""

    layer: str
    cls: type
    name: str
    observe: Optional[Observer] = None

    @property
    def label(self) -> str:
        return f"{self.cls.__name__}.{self.name}"


@dataclass
class TargetStats:
    """Aggregated spans of one wrapped method."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Installed:
    target: Target
    had_own: bool
    original: Any


class Tracer:
    """Install wrappers on ``targets``, aggregate their spans, uninstall.

    Use as a context manager; statistics accumulate across every traced
    block. ``counters`` holds whatever the targets' observers count (per
    layer, only for the outermost call in that layer, so a nested call such
    as ``try_inject`` -> ``queue_for`` is observed once).
    """

    def __init__(self, targets: List[Target]) -> None:
        self.targets = targets
        self.stats = {t.label: TargetStats(t.layer) for t in targets}
        self.counters: Dict[str, float] = {}
        #: per layer: [active nesting depth, outermost calls so far]
        self._layer_cells: Dict[str, List[int]] = {t.layer: [0, 0] for t in targets}
        self._installed: List[_Installed] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        # Children's time accumulates into the top entry; the bottom entry
        # absorbs root spans and is never read.
        stack: List[float] = [0.0]
        for target in self.targets:
            original = target.cls.__dict__.get(target.name)
            function = getattr(target.cls, target.name)
            wrapper = _wrap(
                function, self.stats[target.label], stack,
                self._layer_cells[target.layer], target.observe, self.counters,
            )
            self._installed.append(
                _Installed(target, target.name in target.cls.__dict__, original)
            )
            setattr(target.cls, target.name, wrapper)

    def uninstall(self) -> None:
        for entry in reversed(self._installed):
            if entry.had_own:
                setattr(entry.target.cls, entry.target.name, entry.original)
            else:
                delattr(entry.target.cls, entry.target.name)
        self._installed = []

    # -------------------------------------------------------------- views

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.stats.values() if s.layer == layer)

    def layer_calls(self, layer: str) -> int:
        """Calls into the layer from outside it (nested calls not counted)."""
        return self._layer_cells[layer][1]

    def calls(self, label: str) -> int:
        return self.stats[label].calls

    def total_s(self, label: str) -> float:
        return self.stats[label].total_s

    def table(self) -> List[Tuple[str, str, int, float, float]]:
        """``(layer, target, calls, total_s, self_s)`` rows, busiest first."""
        rows = [
            (s.layer, label, s.calls, s.total_s, s.self_s)
            for label, s in self.stats.items()
            if s.calls
        ]
        return sorted(rows, key=lambda row: -row[4])


def _wrap(
    function: Callable[..., Any],
    stats: TargetStats,
    stack: List[float],
    layer: List[int],
    observe: Optional[Observer],
    counters: Dict[str, float],
) -> Callable[..., Any]:
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        depth = layer[0]
        layer[0] = depth + 1
        stack.append(0.0)
        start = clock()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = clock() - start
            children = stack.pop()
            layer[0] = depth
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += elapsed - children
            stack[-1] += elapsed
        if depth == 0:
            layer[1] += 1
            if observe is not None:
                observe(counters, args, result)
        return result

    wrapper.__wrapped__ = function  # type: ignore[attr-defined]
    return wrapper
