"""Pinned benchmark workloads covering every kernel.

Each :class:`BenchCase` fixes a configuration, workload, seed, and horizon
(a full and a ``--quick`` variant), so two reports are comparable
case-by-case: a wall-time difference means the *code* changed speed, not
the experiment. Cases return the grant count (for grants/sec) plus a small
dict of QoS deltas — numbers that should stay put while we optimise, so a
perf win that silently breaks arbitration shows up in the same report.

Cases deliberately exercise the measurement paths this harness exists to
guard: the GL-policed case reports kernel-counted throttle events, the
hotspot case reports the sustained-minimum windowed rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..multiswitch.simulator import ComposedFlow, MultiStageSimulation
from ..multiswitch.topology import ClosTopology
from ..obs.probe import Probe
from ..resilience import ResilienceOptions
from ..switch.flit_kernel import FlitLevelSimulation
from ..switch.simulator import Simulation
from ..traffic.flows import Workload, be_flow, gb_flow, gl_flow
from ..traffic.patterns import fig4_workload, uniform_random_workload
from ..types import FlowId, TrafficClass

#: What one case hands back: (grants, qos deltas).
CaseResult = Tuple[int, Dict[str, float]]

#: A case body: (horizon, probe, jobs, resilience) -> CaseResult.
#: ``horizon`` is per simulation (per sweep point for sweep cases);
#: single-run cases ignore ``jobs`` and ``resilience`` (only sweep cases
#: dispatch through repro.parallel, the only consumer of resilience).
CaseFn = Callable[
    [int, Optional[Probe], int, Optional[ResilienceOptions]], CaseResult
]


@dataclass(frozen=True)
class BenchCase:
    """One pinned workload of the regression suite.

    Attributes:
        name: stable identifier (reports are joined on it).
        description: one-line summary for the report.
        horizon: cycles for the full suite.
        quick_horizon: cycles for ``--quick`` (CI smoke).
        fn: the case body.
        jobs: worker processes the case is pinned to (sweep cases pin
            1 and 4 so the serial/parallel pair is tracked side by side;
            ``run_case(jobs=...)`` can override).
        kernel: which simulation backend the case exercises (report
            metadata; the body already constructs the right kernel).
        baseline: name of the event-kernel case this one mirrors
            (same config/workload/seed/horizon). The bench CLI pairs the
            two into a ``kernel_speedup`` entry and asserts their grant
            counts and qos deltas match — the parity contract, enforced
            in the perf report itself.
    """

    name: str
    description: str
    horizon: int
    quick_horizon: int
    fn: CaseFn
    jobs: int = 1
    kernel: str = "event"
    baseline: Optional[str] = None


def _paper_config(radix: int = 8, **overrides: object) -> SwitchConfig:
    defaults: Dict[str, object] = dict(
        radix=radix,
        channel_bits=128,
        gb_buffer_flits=16,
        be_buffer_flits=16,
        gl_buffer_flits=16,
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )
    defaults.update(overrides)
    return SwitchConfig(**defaults)  # type: ignore[arg-type]


def _fast_uniform(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Event kernel, radix 8, uniform GB Bernoulli load at 70%."""
    config = _paper_config()
    workload = uniform_random_workload(8, inject_rate=0.7, reserved_share=0.9)
    result = Simulation(config, workload, seed=1, probe=probe).run(horizon)
    total = sum(result.output_utilization.values()) / config.radix
    return result.grants, {"mean_utilization": total}


def _fast_hotspot(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Event kernel, Fig. 4 hotspot: 8 saturating GB flows on one output."""
    config = _paper_config()
    workload = fig4_workload(inject_rate=None)
    result = Simulation(config, workload, seed=1, probe=probe).run(horizon)
    # The 40%-reservation flow must sustain its share in every interior
    # window — the windowed-rate guarantee Fig. 4(b) rests on.
    big = result.stats.flow_stats(FlowId(0, 0, TrafficClass.GB))
    sustained = big.windowed.sustained_minimum()
    return result.grants, {
        "flow0_accepted": result.accepted_rate(FlowId(0, 0, TrafficClass.GB)),
        "flow0_sustained_min": sustained,
    }


def _fast_gl_policed(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Event kernel: saturating GL aggressor vs. reserved GB, tight window."""
    config = _paper_config(
        radix=4,
        channel_bits=64,
        gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=64),
    )
    workload = Workload(name="gl-policed")
    workload.add(gl_flow(0, 0, packet_length=4, inject_rate=None))
    workload.add(gb_flow(1, 0, reserved_rate=0.5, inject_rate=None))
    workload.add(be_flow(2, 0, inject_rate=0.2))
    result = Simulation(config, workload, seed=1, probe=probe).run(horizon)
    throttles = sum(result.gl_throttle_events.values())
    return result.grants, {
        "gl_throttle_events": float(throttles),
        "gb_accepted": result.accepted_rate(FlowId(1, 0, TrafficClass.GB)),
    }


def _fast_uniform_array(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Array-kernel twin of ``fast-uniform-gb``: same config/workload/seed."""
    from ..switch.array_kernel import ArraySimulation

    config = _paper_config()
    workload = uniform_random_workload(8, inject_rate=0.7, reserved_share=0.9)
    result = ArraySimulation(config, workload, seed=1, probe=probe).run(horizon)
    total = sum(result.output_utilization.values()) / config.radix
    return result.grants, {"mean_utilization": total}


def _fast_hotspot_array(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Array-kernel twin of ``fast-hotspot-fig4``: same config/workload/seed."""
    from ..switch.array_kernel import ArraySimulation

    config = _paper_config()
    workload = fig4_workload(inject_rate=None)
    result = ArraySimulation(config, workload, seed=1, probe=probe).run(horizon)
    big = result.stats.flow_stats(FlowId(0, 0, TrafficClass.GB))
    sustained = big.windowed.sustained_minimum()
    return result.grants, {
        "flow0_accepted": result.accepted_rate(FlowId(0, 0, TrafficClass.GB)),
        "flow0_sustained_min": sustained,
    }


def _r128_workload() -> Workload:
    """128 saturating GB flows funneled onto 8 hot outputs (16 per output)."""
    workload = Workload(name="hotspot-r128")
    for src in range(128):
        workload.add(gb_flow(src, src % 8, reserved_rate=0.05, inject_rate=None))
    return workload


def _r128_hotspot(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Event kernel at radix 128 — the regime the array kernel targets.

    At radix 128 the event kernel still scans every input for each of
    the 8 hot outputs each wake, O(radix) Python per contended output,
    while the array kernel's arbitration is a handful of numpy row
    operations — this pair is where the ``kernel_speedup`` headline comes
    from.
    """
    config = _paper_config(radix=128)
    result = Simulation(config, _r128_workload(), seed=1, probe=probe).run(horizon)
    return result.grants, {
        "flow0_accepted": result.accepted_rate(FlowId(0, 0, TrafficClass.GB)),
    }


def _r128_hotspot_array(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Array-kernel twin of ``hotspot-r128``: same config/workload/seed."""
    from ..switch.array_kernel import ArraySimulation

    config = _paper_config(radix=128)
    result = ArraySimulation(
        config, _r128_workload(), seed=1, probe=probe
    ).run(horizon)
    return result.grants, {
        "flow0_accepted": result.accepted_rate(FlowId(0, 0, TrafficClass.GB)),
    }


def _flit_parity(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Flit kernel, radix 4, scheduled GB load (the 10-50x slower engine)."""
    config = _paper_config(radix=4, channel_bits=64)
    workload = uniform_random_workload(4, inject_rate=0.5, reserved_share=0.8)
    result = FlitLevelSimulation(config, workload, seed=1, probe=probe).run(horizon)
    total = sum(result.output_utilization.values()) / config.radix
    return result.grants, {"mean_utilization": total}


def _multiswitch(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Two-stage Clos, 4 groups x 4 hosts, all-to-all-groups GB traffic."""
    topo = ClosTopology(groups=4, hosts_per_group=4)
    flows = []
    for src in range(16):
        dst = (src * 5 + 3) % 16
        flows.append(ComposedFlow(src=src, dst=dst, rate=0.4, inject_rate=0.3))
    sim = MultiStageSimulation(topo, flows, seed=1, probe=probe)
    result = sim.run(horizon)
    grants = result.grants_ingress + result.grants_egress
    return grants, {
        "hol_blocked_cycles": float(result.hol_blocked_cycles),
        "egress_grants": float(result.grants_egress),
    }


def _faulted_hotspot(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Event kernel, Fig. 4 hotspot with an active behavioral fault plan.

    Guards the fault-injection hot paths: the keyed-hash draws and the
    stall/dead masking run inside the arbitration loop, so a slowdown
    here that ``fast-hotspot-fig4`` does not show is fault-hook overhead.
    The ``faults.*`` probe counters double as behavioral pins — a changed
    drop/dup count means the draw stream (not just speed) changed.
    """
    from ..faults import (
        FaultPlan,
        crosspoint_dead,
        input_stall,
        packet_drop,
        packet_dup,
    )
    from ..obs.probe import CountingProbe

    config = _paper_config()
    workload = fig4_workload(inject_rate=None)
    plan = FaultPlan(
        seed=1,
        faults=(
            input_stall(1, start=horizon // 4, duration=horizon // 8),
            crosspoint_dead(2, 0),
            packet_drop(0.05, output=0),
            packet_dup(0.02, output=0),
        ),
    )
    counting = probe if isinstance(probe, CountingProbe) else CountingProbe()
    result = Simulation(
        config, workload, seed=1, probe=counting, fault_plan=plan
    ).run(horizon)
    counters = counting.counters
    return result.grants, {
        "fault_drops": float(counters.get("faults.packet_drops", 0)),
        "fault_dups": float(counters.get("faults.packet_dups", 0)),
        "fault_stall_masks": float(counters.get("faults.stall_masked", 0)),
        "flow0_accepted": result.accepted_rate(FlowId(0, 0, TrafficClass.GB)),
    }


#: Injection rates for the Fig. 4 sweep pair (a fast subset of the figure).
_SWEEP_RATES = (0.05, 0.08, 0.10, 0.15, 0.20, 0.40, 1.0)


def _fig4_sweep(
    horizon: int,
    probe: Optional[Probe],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Fast Fig. 4 SSVC sweep through repro.parallel (7 rate points).

    The serial/parallel case pair shares this body; only ``jobs`` differs,
    so their qos deltas must match exactly (the executor's determinism
    contract) while the wall times expose the fan-out speedup.
    """
    del probe  # sweep wall time is the measurement; kernels run bare
    from ..experiments.fig4_bandwidth import run_fig4

    result = run_fig4(
        "ssvc", _SWEEP_RATES, horizon=horizon, jobs=jobs, resilience=resilience
    )
    grants = sum(result.grants.values())
    shares = result.saturation_shares
    return grants, {
        "sweep_points": float(len(_SWEEP_RATES)),
        "jobs": float(jobs),
        "flow0_at_saturation": shares[0],
        "total_at_saturation": result.total_throughput[1.0],
    }


#: The pinned suite, in report order.
SUITE: Tuple[BenchCase, ...] = (
    BenchCase(
        name="fast-uniform-gb",
        description="event kernel, radix 8, uniform GB Bernoulli 0.7",
        horizon=60_000,
        quick_horizon=8_000,
        fn=_fast_uniform,
    ),
    BenchCase(
        name="fast-uniform-gb-array",
        description="array kernel, radix 8, uniform GB Bernoulli 0.7",
        horizon=60_000,
        quick_horizon=8_000,
        fn=_fast_uniform_array,
        kernel="array",
        baseline="fast-uniform-gb",
    ),
    BenchCase(
        name="fast-hotspot-fig4",
        description="event kernel, Fig. 4 hotspot, saturating GB",
        horizon=60_000,
        quick_horizon=10_000,
        fn=_fast_hotspot,
    ),
    BenchCase(
        name="fast-hotspot-fig4-array",
        description="array kernel, Fig. 4 hotspot, saturating GB",
        horizon=60_000,
        quick_horizon=10_000,
        fn=_fast_hotspot_array,
        kernel="array",
        baseline="fast-hotspot-fig4",
    ),
    BenchCase(
        name="fast-gl-policed",
        description="event kernel, saturating GL vs. GB, tight burst window",
        horizon=40_000,
        quick_horizon=8_000,
        fn=_fast_gl_policed,
    ),
    BenchCase(
        name="fast-hotspot-faulted",
        description="event kernel, Fig. 4 hotspot with active fault plan",
        horizon=60_000,
        quick_horizon=10_000,
        fn=_faulted_hotspot,
    ),
    BenchCase(
        name="hotspot-r128",
        description="event kernel, radix 128, 128 saturating GB flows",
        horizon=4_000,
        quick_horizon=2_000,
        fn=_r128_hotspot,
    ),
    BenchCase(
        name="hotspot-r128-array",
        description="array kernel, radix 128, 128 saturating GB flows",
        horizon=4_000,
        quick_horizon=2_000,
        fn=_r128_hotspot_array,
        kernel="array",
        baseline="hotspot-r128",
    ),
    BenchCase(
        name="flit-uniform-gb",
        description="flit kernel, radix 4, uniform GB Bernoulli 0.5",
        horizon=12_000,
        quick_horizon=3_000,
        fn=_flit_parity,
        kernel="flit",
    ),
    BenchCase(
        name="multiswitch-clos",
        description="two-stage Clos 4x4, permuted GB flows",
        horizon=30_000,
        quick_horizon=6_000,
        fn=_multiswitch,
    ),
    BenchCase(
        name="fig4-sweep-serial",
        description="fast Fig. 4 SSVC sweep, 7 points, serial executor",
        horizon=20_000,
        quick_horizon=2_500,
        fn=_fig4_sweep,
        jobs=1,
    ),
    BenchCase(
        name="fig4-sweep-parallel",
        description="fast Fig. 4 SSVC sweep, 7 points, 4 worker processes",
        horizon=20_000,
        quick_horizon=2_500,
        fn=_fig4_sweep,
        jobs=4,
    ),
)

#: Case used for the probe-overhead measurement (disabled vs. enabled).
OVERHEAD_CASE = SUITE[0]

#: The sweep pair whose wall-time ratio is the parallel-speedup metric.
SWEEP_SERIAL_CASE = "fig4-sweep-serial"
SWEEP_PARALLEL_CASE = "fig4-sweep-parallel"


def run_case(
    case: BenchCase,
    quick: bool = False,
    probe: Optional[Probe] = None,
    jobs: Optional[int] = None,
    resilience: Optional[ResilienceOptions] = None,
) -> CaseResult:
    """Execute one case at the requested fidelity.

    Args:
        case: the pinned case.
        quick: use the CI-smoke horizon.
        probe: optional probe threaded into the kernel.
        jobs: override of the case's pinned worker count.
        resilience: journaling/retry/salvage bundle for sweep cases
            (single-run cases ignore it).
    """
    horizon = case.quick_horizon if quick else case.horizon
    return case.fn(horizon, probe, case.jobs if jobs is None else jobs, resilience)
