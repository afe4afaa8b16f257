"""The layer table: which ``repro`` public functions each traced layer owns.

Layer names are ``repro`` module names. ``Simulation.run`` is the root of a
kernel replicate: its self time (the event loop and the closures it defines)
is the ``kernel`` layer. The harness layers wrap the calls the sweep
executor makes in the parent process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.catalog import RunCatalog
from repro.parallel import SweepExecutor
from repro.qos.iterative import IterativeArbiter
from repro.qos.ssvc_arbiter import SSVCArbiter
from repro.qos.three_class import ThreeClassArbiter
from repro.metrics.counters import StatsCollector
from repro.resilience import RunJournal
from repro.switch.buffers import InputPort
from repro.switch.output_channel import OutputChannel
from repro.switch.simulator import Simulation
from repro.traffic.generators import FlowSource

from .spans import Target

Counters = Dict[str, float]


def _bump(counters: Counters, name: str, delta: float = 1) -> None:
    counters[name] = counters.get(name, 0) + delta


def _observe_inject(counters: Counters, args: Tuple[Any, ...], admitted: Any) -> None:
    _bump(counters, "buffers.inject_calls")
    if admitted:
        _bump(counters, "buffers.admitted")


def _observe_select(counters: Counters, args: Tuple[Any, ...], winner: Any) -> None:
    _bump(counters, "qos.select_calls")
    _bump(counters, "qos.contenders", len(args[1]))
    if winner is None:
        _bump(counters, "qos.declines")


def _observe_match(counters: Counters, args: Tuple[Any, ...], matching: Any) -> None:
    _bump(counters, "qos.match_calls")
    _bump(counters, "qos.pairs", len(matching.pairs))


def _concrete_matchers() -> List[type]:
    found: List[type] = []
    pending = list(IterativeArbiter.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "match" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def kernel_targets() -> List[Target]:
    """Spans inside one simulation, rooted at ``Simulation.run``."""
    targets = [
        Target("kernel", Simulation, "run"),
        Target("traffic", FlowSource, "__init__"),
        Target("traffic", FlowSource, "make_packet"),
        Target("traffic", FlowSource, "pop_scheduled"),
        Target("buffers", InputPort, "try_inject", _observe_inject),
        Target("buffers", InputPort, "queue_for"),
        Target("buffers", InputPort, "head_for_output"),
        Target("buffers", InputPort, "gl_head_for"),
        Target("buffers", InputPort, "pop_packet"),
        Target("buffers", InputPort, "voq_backlog"),
        Target("qos.select", ThreeClassArbiter, "select", _observe_select),
        Target("qos.select", ThreeClassArbiter, "commit"),
        Target("qos.select", SSVCArbiter, "select", _observe_select),
        Target("qos.select", SSVCArbiter, "commit"),
        Target("channel", OutputChannel, "start_transmission"),
        Target("channel", OutputChannel, "is_idle"),
        Target("stats", StatsCollector, "on_created"),
        Target("stats", StatsCollector, "on_delivered"),
    ]
    targets.extend(
        Target("qos.match", cls, "match", _observe_match)
        for cls in _concrete_matchers()
    )
    return targets


#: Layers whose self time is reported, besides the ``kernel`` root.
KERNEL_LAYERS = ("traffic", "buffers", "qos.select", "qos.match", "channel", "stats")


def harness_targets() -> List[Target]:
    """Spans the sweep executor opens in the parent process."""
    return [
        Target("parallel", SweepExecutor, "map"),
        Target("catalog.record", RunCatalog, "record"),
        Target("catalog.lookup", RunCatalog, "lookup"),
        Target("journal", RunJournal, "record"),
    ]
