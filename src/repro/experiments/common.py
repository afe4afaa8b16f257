"""Shared experiment plumbing: arbiter presets, run helpers, and claims."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs.probe import Probe
from ..qos import (
    ArrivalStampedVCArbiter,
    CCSPArbiter,
    DWRRArbiter,
    FixedPriorityArbiter,
    GSFArbiter,
    ISLIPArbiter,
    LRGArbiter,
    OutputArbiter,
    PreemptiveVCArbiter,
    QPSRArbiter,
    SSVCArbiter,
    SWQPSArbiter,
    TDMArbiter,
    ThreeClassArbiter,
    VirtualClockArbiter,
    WFQArbiter,
    WRRArbiter,
    shared_iterative_factory,
)
from ..switch.crossbar import ArbiterFactory
from ..switch.simulator import Simulation, SimulationResult
from ..metrics.report import format_table  # after switch: metrics imports it
from ..traffic.flows import Workload
from ..types import CounterMode


def _ssvc_factory(mode: Optional[CounterMode]) -> ArbiterFactory:
    def factory(output: int, config: SwitchConfig) -> OutputArbiter:
        qos = config.qos if mode is None else replace(config.qos, counter_mode=mode)
        return SSVCArbiter(config.radix, qos=qos)

    return factory


def _three_class_factory(output: int, config: SwitchConfig) -> OutputArbiter:
    return ThreeClassArbiter(
        config.radix, qos=config.qos, gl_policer_config=config.gl_policer
    )


#: Named arbitration policies usable from the CLI and the benches.
ARBITER_PRESETS: "dict[str, ArbiterFactory]" = {
    "lrg": lambda o, c: LRGArbiter(c.radix),
    "virtual-clock": lambda o, c: VirtualClockArbiter(c.radix),
    "virtual-clock-arrival": lambda o, c: ArrivalStampedVCArbiter(c.radix),
    "preemptive-vc": lambda o, c: PreemptiveVCArbiter(c.radix),
    "ccsp": lambda o, c: CCSPArbiter(c.radix),
    "ssvc": _ssvc_factory(None),
    "ssvc-subtract": _ssvc_factory(CounterMode.SUBTRACT),
    "ssvc-halve": _ssvc_factory(CounterMode.HALVE),
    "ssvc-reset": _ssvc_factory(CounterMode.RESET),
    "three-class": _three_class_factory,
    "fixed-priority": lambda o, c: FixedPriorityArbiter(c.radix),
    "wrr": lambda o, c: WRRArbiter(c.radix, work_conserving=True),
    "wrr-strict": lambda o, c: WRRArbiter(c.radix, work_conserving=False),
    "dwrr": lambda o, c: DWRRArbiter(c.radix),
    "wfq": lambda o, c: WFQArbiter(c.radix),
    "tdm": lambda o, c: TDMArbiter(c.radix),
    "gsf": lambda o, c: GSFArbiter(c.radix),
    # Iterative VOQ matching schedulers (event kernel + SwitchConfig.voq
    # only; see docs/SCHEDULERS.md). One instance arbitrates the whole
    # switch, rebuilt per simulation by shared_iterative_factory.
    "islip": shared_iterative_factory(lambda c: ISLIPArbiter(c.radix)),
    "qps-r": shared_iterative_factory(lambda c: QPSRArbiter(c.radix)),
    "sw-qps": shared_iterative_factory(lambda c: SWQPSArbiter(c.radix)),
}


def make_arbiter_factory(preset: Union[str, ArbiterFactory]) -> ArbiterFactory:
    """Resolve a preset name (or pass a factory through).

    Raises:
        ConfigError: for unknown preset names, listing the valid ones.
    """
    if callable(preset):
        return preset
    try:
        return ARBITER_PRESETS[preset]
    except KeyError:
        raise ConfigError(
            f"unknown arbiter preset {preset!r}; valid: {sorted(ARBITER_PRESETS)}"
        ) from None


#: Simulation backends selectable by name (see docs/KERNELS.md).
KERNELS = ("event", "flit", "array")


class SimulationKernel(Protocol):
    """What every backend exposes: one run() producing a result."""

    def run(self, horizon: int) -> SimulationResult:
        """Simulate ``horizon`` cycles and return the collected results."""


def make_simulation(
    kernel: str,
    config: SwitchConfig,
    workload: Workload,
    **kwargs: object,
) -> SimulationKernel:
    """Construct the named kernel's simulation (event/flit/array).

    The flit and array backends are imported lazily so the default path
    pays nothing for them.

    Raises:
        ConfigError: for unknown kernel names, listing the valid ones.
    """
    if kernel == "event":
        return Simulation(config, workload, **kwargs)  # type: ignore[arg-type]
    if kernel == "flit":
        from ..switch.flit_kernel import FlitLevelSimulation

        return FlitLevelSimulation(config, workload, **kwargs)  # type: ignore[arg-type]
    if kernel == "array":
        from ..switch.array_kernel import ArraySimulation

        return ArraySimulation(config, workload, **kwargs)  # type: ignore[arg-type]
    raise ConfigError(f"unknown kernel {kernel!r}; valid: {list(KERNELS)}")


def run_simulation(
    config: SwitchConfig,
    workload: Workload,
    arbiter: Union[str, ArbiterFactory] = "three-class",
    horizon: int = 50_000,
    seed: int = 0,
    warmup_cycles: Optional[int] = None,
    collect_events: bool = False,
    probe: Optional[Probe] = None,
    fault_plan: Optional[FaultPlan] = None,
    kernel: str = "event",
) -> SimulationResult:
    """Build and run one simulation (the single entry point experiments use)."""
    sim = make_simulation(
        kernel,
        config,
        workload,
        arbiter_factory=make_arbiter_factory(arbiter),
        seed=seed,
        warmup_cycles=warmup_cycles,
        collect_events=collect_events,
        probe=probe,
        fault_plan=fault_plan,
    )
    return sim.run(horizon)


def voq_config(
    radix: int = 8,
    buffer_flits: int = 32,
    arbitration_cycles: int = 0,
) -> SwitchConfig:
    """A full-VOQ input-queued switch for the scheduler tournament.

    Every class gets per-output queues of ``buffer_flits`` flits, and the
    arbitration bubble defaults to zero so iterative schedulers can reach
    their papers' 100%-of-channel uniform throughput (with the Swizzle
    Switch's 1-cycle bubble, ``L/(L+1)`` caps everyone at 0.89 for 8-flit
    packets and the comparison flattens). GL reservation is disabled: the
    tournament drives unreserved traffic so head-of-line blocking — the
    thing VOQ removes — is what the classic-mode baseline exposes.
    """
    return SwitchConfig(
        radix=radix,
        voq=True,
        arbitration_cycles=arbitration_cycles,
        be_buffer_flits=buffer_flits,
        gb_buffer_flits=buffer_flits,
        gl_buffer_flits=buffer_flits,
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )


#: Saturated single-output throughput for the paper's 8-flit packets with
#: ``gb_only_config``'s one-cycle arbitration bubble: ``L / (L + 1)``.
CEILING = 8 / 9


def gb_only_config(
    radix: int = 8,
    channel_bits: int = 128,
    sig_bits: int = 4,
    frac_bits: int = 8,
    counter_mode: CounterMode = CounterMode.SUBTRACT,
    gb_buffer_flits: int = 16,
) -> SwitchConfig:
    """A Fig. 4/5-style configuration: GB traffic only, no GL reservation."""
    return SwitchConfig(
        radix=radix,
        channel_bits=channel_bits,
        gb_buffer_flits=gb_buffer_flits,
        qos=QoSConfig(sig_bits=sig_bits, frac_bits=frac_bits, counter_mode=counter_mode),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )


@dataclass(frozen=True)
class Claim:
    """One paper claim, judged on the evidence an artifact just produced.

    ``ref`` cites the paper (a section or a short quote); ``holds`` is
    ``None`` when a salvage run left the evidence out, so the claim is
    skipped instead of judged.
    """

    claim: str
    ref: str
    holds: Optional[bool]
    evidence: str

    @property
    def verdict(self) -> str:
        return "skipped" if self.holds is None else "yes" if self.holds else "NO"


Verdict = Tuple[bool, str]


def judge(
    claim: str, ref: str, missing: Sequence[str], verdict: Callable[[], Verdict]
) -> Claim:
    """Judge a claim with ``verdict() -> (holds, evidence)``, or skip it if
    ``missing`` names evidence a salvage run left out."""
    if missing:
        return Claim(claim, ref, None,
                     f"no evidence: {', '.join(missing)} missing (salvaged)")
    return Claim(claim, ref, *verdict())


def near(label: str, value: float, target: float, tol: float) -> Verdict:
    """A point claim: ``value`` within ``tol`` of ``target``."""
    return (abs(value - target) <= tol,
            f"{label} {value:.4f} vs {target:.4f} (tol {tol:g})")


def format_claims(claims: Sequence[Claim]) -> str:
    """The claims table every artifact report ends with."""
    return format_table(
        ["claim", "paper", "holds", "evidence"],
        [(c.claim, c.ref, c.verdict, c.evidence) for c in claims],
        title="paper claims",
    )


@dataclass(frozen=True)
class Report:
    """An artifact's ``main`` result: its rendered evidence and the claims
    judged on it (``repro-exp`` exits 1 when one fails)."""

    body: str
    claims: Tuple[Claim, ...]

    @property
    def failed(self) -> List[Claim]:
        return [c for c in self.claims if c.holds is False]

    def format(self) -> str:
        return self.body + "\n\n" + format_claims(self.claims)
