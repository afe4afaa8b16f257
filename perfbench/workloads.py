"""The benchmark's workloads: what one replicate runs and how it is checked.

A *replicate* is one seeded simulation (kernel workloads) or one cold Fig. 4
sweep (``fig4-sweep``). Replicate ``i`` of a run with ``--seed s`` uses the
simulation seed :func:`replicate_seed` ``(s, i)``, so a seed fixes every
input. Each replicate is reduced to a digest of its simulated statistics
and checked three ways (see :func:`gate`): against the digest pinned for
the default seed, against the workload's paper predicate, and — where an
array-kernel twin exists — against that twin.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.experiments.common import make_arbiter_factory, voq_config
from repro.obs.probe import Probe
from repro.parallel import SweepPoint
from repro.switch.crossbar import SwizzleSwitch
from repro.switch.simulator import Simulation, SimulationResult
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.generators import BernoulliInjection
from repro.traffic.patterns import FIG4_RESERVED_RATES, fig4_workload, uniform_be_workload
from repro.types import FlowId, TrafficClass

#: The seed whose replicate digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1

#: Replicates per default-seed run whose digests are pinned.
PINNED_REPLICATES = 4

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Saturated Swizzle-Switch output: one arbitration cycle per 8-flit packet.
FIG4_CEILING = 8 / 9


def replicate_seed(seed: int, index: int) -> int:
    """Simulation seed of replicate ``index`` in a run with ``--seed seed``."""
    return seed * 100_000 + index


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------- digests


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def result_digest(result: SimulationResult) -> str:
    """Grants plus per-flow counts, mean latencies and accepted rates."""
    stats = result.stats
    rows: List[Any] = [result.grants]
    for flow in sorted(stats.flows, key=str):
        flow_stats = stats.flows[flow]
        latency = flow_stats.latency
        rows.append(
            (
                str(flow),
                flow_stats.offered_flits,
                flow_stats.delivered_packets,
                flow_stats.delivered_flits,
                latency.mean if latency.count else None,
                flow_stats.accepted_rate(stats.measured_cycles),
            )
        )
    return _digest(rows)


def _class_flits(result: SimulationResult, traffic_class: TrafficClass) -> Tuple[int, int]:
    """(offered, delivered) flits of one class inside the measurement window."""
    offered = delivered = 0
    for flow, flow_stats in result.stats.flows.items():
        if flow.traffic_class is traffic_class:
            offered += flow_stats.offered_flits
            delivered += flow_stats.delivered_flits
    return offered, delivered


# ------------------------------------------------------- kernel workloads


def _paper_config(gl_reserved: float = 0.0, burst_window: Optional[int] = 2048) -> SwitchConfig:
    """Radix 8, 128-bit channels, 16-flit buffers, 4 significant auxVC bits."""
    return SwitchConfig(
        radix=8,
        channel_bits=128,
        gb_buffer_flits=16,
        be_buffer_flits=16,
        gl_buffer_flits=16,
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        gl_policer=GLPolicerConfig(reserved_rate=gl_reserved, burst_window=burst_window),
    )


def _fig4_config() -> SwitchConfig:
    return _paper_config()


def _fig4_traffic() -> Workload:
    return fig4_workload(inject_rate=None)


def _fig4_predicate(replicate: "Replicate") -> List[str]:
    """Fig. 4(b): the output saturates at 8/9 and flows 1-7 keep their rates."""
    result = replicate.result
    errors = []
    total = result.stats.output_throughput(0)
    if abs(total - FIG4_CEILING) > 0.005:
        errors.append(f"output 0 carries {total:.4f} flits/cycle, not 8/9")
    for src, reserved in enumerate(FIG4_RESERVED_RATES):
        if src == 0:
            continue  # flow 0 absorbs the 1/9 shortfall
        accepted = result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
        if accepted < 0.97 * reserved:
            errors.append(f"flow {src} got {accepted:.4f} < reserved {reserved}")
    return errors


#: mixed-3class GL flows that stay within the GL reservation (src -> dst).
_CONFORMING_GL = ((0, 1), (1, 2), (2, 3), (3, 4))
#: mixed-3class GL flow that exceeds it, so the policer throttles it.
_AGGRESSOR_GL = (5, 6)
_MIXED_GL_RESERVED = 0.05


def _mixed_config() -> SwitchConfig:
    return _paper_config(gl_reserved=_MIXED_GL_RESERVED, burst_window=256)


def _mixed_traffic() -> Workload:
    """Uniform reserved GB, uniform BE background and policed GL.

    Each input offers 0.5 GB + 0.15 BE flits/cycle plus a little GL: about
    74% of the 8/9 channel, the last step below the load at which the
    classic ports' single BE queue saturates and source backlogs grow.
    """
    workload = Workload(name="mixed-3class")
    for src in range(8):
        for dst in range(8):
            workload.add(
                gb_flow(src, dst, reserved_rate=0.1, process=BernoulliInjection(0.5 / 8))
            )
            workload.add(be_flow(src, dst, process=BernoulliInjection(0.15 / 8)))
    for src, dst in _CONFORMING_GL:
        workload.add(gl_flow(src, dst, process=BernoulliInjection(0.01)))
    src, dst = _AGGRESSOR_GL
    workload.add(gl_flow(src, dst, process=BernoulliInjection(0.08)))
    return workload


def _mean_wait(result: SimulationResult, flows: List[FlowId]) -> float:
    """Packet-weighted mean injection-to-grant wait over ``flows``."""
    packets = 0
    total = 0.0
    for flow in flows:
        waiting = result.stats.flow_stats(flow).waiting
        packets += waiting.count
        total += waiting.mean * waiting.count
    return total / packets if packets else 0.0


def _mixed_predicate(replicate: "Replicate") -> List[str]:
    """Section 3: conforming GL and GB wait less than BE, GB is carried, and
    the policer throttles only the over-rate GL flow."""
    result = replicate.result
    errors = []
    flows = sorted(result.stats.flows, key=str)
    be_wait = _mean_wait(result, [f for f in flows if f.traffic_class is TrafficClass.BE])
    for name, group in (
        ("conforming GL", [FlowId(s, d, TrafficClass.GL) for s, d in _CONFORMING_GL]),
        ("GB", [f for f in flows if f.traffic_class is TrafficClass.GB]),
    ):
        wait = _mean_wait(result, group)
        if wait >= be_wait:
            errors.append(f"{name} waits {wait:.1f} cycles, BE only {be_wait:.1f}")
    offered, delivered = _class_flits(result, TrafficClass.GB)
    if delivered < 0.97 * offered:
        errors.append(f"GB delivered {delivered} of {offered} offered flits")
    throttled = {o for o, events in result.gl_throttle_events.items() if events}
    if throttled != {_AGGRESSOR_GL[1]}:
        errors.append(f"GL policer throttled outputs {sorted(throttled)}, not {_AGGRESSOR_GL[1]}")
    return errors


def _islip_config() -> SwitchConfig:
    return voq_config(radix=8)


def _islip_traffic() -> Workload:
    return uniform_be_workload(8, 0.95)


def _islip_predicate(replicate: "Replicate") -> List[str]:
    """iSLIP on full VOQs keeps up with at least 95% of the offered load.

    Flits offered in the measurement window must be delivered or still sit
    in the switch's VOQs at the end; a switch that cannot keep up instead
    grows the unbounded source queues, which this ratio leaves out.
    """
    offered, delivered = _class_flits(replicate.result, TrafficClass.BE)
    buffered = sum(port.total_occupancy_flits for port in replicate.switch.inputs)
    if delivered + buffered < 0.95 * offered:
        return [
            f"iSLIP delivered {delivered} (+{buffered} buffered) of {offered} offered flits"
        ]
    return []


class Replicate(NamedTuple):
    """A finished simulation: its result, and its switch's final state."""

    result: SimulationResult
    switch: SwizzleSwitch


@dataclass(frozen=True)
class KernelWorkload:
    """One seeded single-switch simulation per replicate.

    Attributes:
        name: workload name on the command line.
        horizon: simulated cycles per replicate.
        config / traffic: builders for the switch and its flows.
        arbiter: arbiter preset, or ``None`` for the paper's three-class stack.
        array_twin: whether ``ArraySimulation`` supports this config (its
            result must then equal the event kernel's bit for bit).
        predicate: the paper claim a replicate must satisfy.
    """

    name: str
    horizon: int
    config: Callable[[], SwitchConfig]
    traffic: Callable[[], Workload]
    arbiter: Optional[str]
    array_twin: bool
    predicate: Callable[[Replicate], List[str]]

    def simulation(
        self, seed: int, probe: Optional[Probe] = None, kernel: str = "event"
    ) -> Simulation:
        factory = make_arbiter_factory(self.arbiter) if self.arbiter else None
        cls = Simulation
        if kernel == "array":
            from repro.switch.array_kernel import ArraySimulation

            cls = ArraySimulation
        return cls(self.config(), self.traffic(), arbiter_factory=factory, seed=seed, probe=probe)

    def run(
        self, seed: int, probe: Optional[Probe] = None, kernel: str = "event"
    ) -> Replicate:
        sim = self.simulation(seed, probe, kernel)
        return Replicate(sim.run(self.horizon), sim.switch)


KERNEL_WORKLOADS: Dict[str, KernelWorkload] = {
    w.name: w
    for w in (
        KernelWorkload(
            "fig4-hotspot", 20_000, _fig4_config, _fig4_traffic, None, True, _fig4_predicate
        ),
        KernelWorkload(
            "mixed-3class", 4_000, _mixed_config, _mixed_traffic, None, True, _mixed_predicate
        ),
        KernelWorkload(
            "voq-islip", 3_000, _islip_config, _islip_traffic, "islip", False, _islip_predicate
        ),
    )
}


# ---------------------------------------------------------- sweep workload

#: Simulated cycles per ``fig4-sweep`` point: short, so the harness dominates.
SWEEP_HORIZON = 2_000


def sweep_jobs() -> int:
    """Worker processes for ``fig4-sweep``: 2, or 1 on a single CPU."""
    return min(2, nproc())


def sweep_digest(result: Any) -> str:
    """Per-rate accepted rates, totals and grants of a Fig. 4 sweep."""
    return _digest(
        [
            (rate, result.accepted[rate], result.total_throughput[rate], result.grants[rate])
            for rate in sorted(result.accepted)
        ]
    )


def sweep_predicate(result: Any) -> List[str]:
    """Fig. 4(b) at saturation: the output carries 8/9 flits/cycle."""
    total = result.total_throughput[1.0]
    if abs(total - FIG4_CEILING) > 0.005:
        return [f"saturated fig4 point carries {total:.4f} flits/cycle, not 8/9"]
    return []


def run_sweep(seed: int, jobs: int, resilience: Any = None) -> Any:
    """One Fig. 4(b) SSVC sweep over the paper's 11 injection rates."""
    from repro.experiments.fig4_bandwidth import DEFAULT_SWEEP, run_fig4

    return run_fig4(
        "ssvc", DEFAULT_SWEEP, horizon=SWEEP_HORIZON, seed=seed, jobs=jobs,
        resilience=resilience,
    )


def sweep_point_simulations(
    seed: int, probe_factory: Callable[[], Optional[Probe]]
) -> List[Tuple[float, Simulation]]:
    """The simulations behind one ``fig4-sweep`` replicate, one per rate.

    Built as ``run_fig4`` builds each point (the paper's GB-only Fig. 4
    config, the SSVC preset, the point's seed) but in-process and with a
    probe, so the traced run can attribute the sweep's kernel time to
    layers. :func:`sweep_point_matches` checks they agree with the sweep.
    """
    from repro.experiments.common import gb_only_config
    from repro.experiments.fig4_bandwidth import DEFAULT_SWEEP
    from repro.traffic.patterns import single_output_workload

    sims = []
    for rate in DEFAULT_SWEEP:
        workload = single_output_workload(
            num_inputs=len(FIG4_RESERVED_RATES),
            output=0,
            reserved_rates=list(FIG4_RESERVED_RATES),
            packet_length=8,
            inject_rate=None if rate >= 1.0 else rate,
        )
        sim = Simulation(
            gb_only_config(radix=8, channel_bits=128, sig_bits=4),
            workload,
            arbiter_factory=make_arbiter_factory("ssvc"),
            seed=seed,
            probe=probe_factory(),
        )
        sims.append((rate, sim))
    return sims


def sweep_point_matches(sweep: Any, rate: float, result: SimulationResult) -> bool:
    """Does an in-process point simulation reproduce the sweep's point?"""
    per_flow = [
        result.accepted_rate(FlowId(src, 0, TrafficClass.GB))
        for src in range(len(FIG4_RESERVED_RATES))
    ]
    return per_flow == sweep.accepted[rate] and result.grants == sweep.grants[rate]


WORKLOAD_NAMES = tuple(KERNEL_WORKLOADS) + ("fig4-sweep",)


# ------------------------------------------------------------ the gate


def load_pinned() -> Dict[str, List[str]]:
    return json.loads(PINNED_PATH.read_text())["digests"]


def gate(
    workload: str,
    seed: int,
    index: int,
    digest: str,
    violations: List[str],
    pinned: Dict[str, List[str]],
) -> List[str]:
    """Every reason replicate ``index`` of this run is wrong (empty if none)."""
    errors = [f"{workload}[{index}]: {v}" for v in violations]
    expected = pinned.get(workload, [])
    if seed == DEFAULT_SEED and index < len(expected) and expected[index] != digest:
        errors.append(
            f"{workload}[{index}]: digest {digest} != pinned {expected[index]}"
        )
    return errors


# ------------------------------------------------- catalogued replicates


def replicate_point(point: SweepPoint) -> Tuple[int, str]:
    """Sweep worker: one kernel replicate as ``(grants, digest)``.

    The benchmark catalogues already-measured replicates under this worker
    and re-serves them from a warm :class:`repro.catalog.RunCatalog`; the
    body runs only on a cache miss.
    """
    result = KERNEL_WORKLOADS[point.param("workload")].run(point.seed).result
    return result.grants, result_digest(result)


def replicate_points(workload: str, seeds: List[int]) -> List[SweepPoint]:
    return [
        SweepPoint.make(i, f"{workload}#{i}", seed=s, workload=workload)
        for i, s in enumerate(seeds)
    ]


def ready(workload: str, seed: int, scratch: Path) -> object:
    """Build everything the first replicate needs, without running it."""
    if workload in KERNEL_WORKLOADS:
        return KERNEL_WORKLOADS[workload].simulation(replicate_seed(seed, 0))
    from repro.catalog import RunCatalog
    from repro.experiments import fig4_bandwidth
    from repro.resilience import ResilienceOptions, RunJournal

    options = ResilienceOptions(
        catalog=RunCatalog(scratch / "catalog.ndjson"),
        journal=RunJournal(scratch / "journal.ndjson"),
    )
    return fig4_bandwidth.run_fig4, options
