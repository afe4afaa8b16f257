"""QoS resilience under injected faults (`repro-exp faults`).

Every fault kind in :mod:`repro.faults` carries a declared degradation
contract: either the model *raises* (circuit faults that break the
one-charged-wire invariant) or it *degrades*, voiding a declared subset of
the paper's QoS guarantees. This experiment drives the behavioral fault
kinds through a fixed three-class workload and reports, per scenario,
which guarantees actually survived:

``reserved_rate``
    every GB flow's accepted rate stays within tolerance of its
    reservation (Section 4.2's adherence check, with a looser tolerance
    because faults are allowed to shave throughput they did not void);
``gl_bound``
    the compliant GL flow's worst waiting time stays within Eq. 1;
``policer_containment``
    the abusive saturating GL source stays policed near its reservation
    (Section 3.4's safeguard).

The testable contract-honouring property: the set of guarantees a
scenario violates must be a subset of the union of ``voids`` declared by
its fault kinds — and the fault-free baseline must hold all three.

The scenario sweep runs through :class:`~repro.parallel.SweepExecutor`
(fault plans are frozen and picklable, so they ride inside the
:class:`~repro.parallel.SweepPoint` envelope) and is bit-identical at any
``--jobs`` count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..core.gl_bound import gl_latency_bound
from ..errors import SimulationError
from ..faults import (
    FaultPlan,
    crosspoint_dead,
    counter_bitflip,
    input_stall,
    packet_drop,
    packet_dup,
)
from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from ..traffic.flows import Workload, gb_flow, gl_flow
from ..traffic.generators import BernoulliInjection
from ..types import FlowId, TrafficClass
from .claims import Claim, Report, judge
from .common import run_simulation

#: Relative GB shortfall a *non-voided* scenario may still show. Looser
#: than Section 4.3's 2 % because the congested two-output workload runs
#: shorter horizons than the adherence sweep.
FAULT_RATE_TOLERANCE = 0.05

#: Flits/cycle the policed abuser may take before containment is "lost"
#: (reservation 0.05 plus burst allowance plus demoted-BE leftovers).
CONTAINMENT_CAP = 0.15

#: Geometry shared by every scenario (radix-8, Fig. 1 parameters).
_RADIX = 8
_GB_PACKET_FLITS = 8
_GL_BUFFER_FLITS = 8
_GL_L_MIN = 1
_GL_L_MAX = 2

#: GB reservations: inputs 0-5 hold 0.1 each at output 0 (the observed
#: output); inputs 1-6 hold 0.13 each at output 1 so the abuser's output
#: is nearly fully reserved and leftovers cannot mask a broken policer.
_OUT0_GB_INPUTS = tuple(range(6))
_OUT0_GB_SHARE = 0.1
_OUT1_GB_INPUTS = tuple(range(1, 7))
_OUT1_GB_SHARE = 0.13
_GL_COMPLIANT_INPUT = 6  # infrequent GL packets to output 0
_GL_COMPLIANT_RATE = 0.01
_GL_ABUSER_INPUT = 7  # saturating GL source to output 1


def _resilience_config() -> SwitchConfig:
    return SwitchConfig(
        radix=_RADIX,
        channel_bits=128,
        gb_buffer_flits=16,
        gl_buffer_flits=_GL_BUFFER_FLITS,
        qos=QoSConfig(sig_bits=4, frac_bits=8),
        gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=2048),
    )


def _resilience_workload() -> Workload:
    workload = Workload(name="faults-resilience")
    for src in _OUT0_GB_INPUTS:
        workload.add(
            gb_flow(
                src, 0, _OUT0_GB_SHARE,
                packet_length=_GB_PACKET_FLITS, inject_rate=None,
            )
        )
    for src in _OUT1_GB_INPUTS:
        workload.add(
            gb_flow(
                src, 1, _OUT1_GB_SHARE,
                packet_length=_GB_PACKET_FLITS, inject_rate=None,
            )
        )
    workload.add(
        gl_flow(
            _GL_COMPLIANT_INPUT,
            0,
            packet_length=(_GL_L_MIN, _GL_L_MAX),
            process=BernoulliInjection(_GL_COMPLIANT_RATE),
        )
    )
    workload.add(
        gl_flow(_GL_ABUSER_INPUT, 1, packet_length=4, inject_rate=None)
    )
    return workload


def scenario_plans(horizon: int, seed: int) -> "Dict[str, FaultPlan]":
    """The named fault scenarios, one plan each (``none`` is empty).

    Each degrade-mode fault kind appears exactly once, aimed at the
    observed output 0 so its declared ``voids`` are actually exercised.
    """
    return {
        "none": FaultPlan(seed=seed),
        "input-stall": FaultPlan(
            seed=seed,
            faults=(
                input_stall(0, start=horizon // 4, duration=horizon // 4),
            ),
        ),
        "dead-crosspoint": FaultPlan(
            seed=seed, faults=(crosspoint_dead(1, 0),)
        ),
        "counter-bitflip": FaultPlan(
            seed=seed,
            faults=(counter_bitflip(2, 0, bit=11, at_cycle=horizon // 2),),
        ),
        "packet-drop": FaultPlan(
            seed=seed, faults=(packet_drop(0.1, output=0),)
        ),
        "packet-dup": FaultPlan(
            seed=seed, faults=(packet_dup(0.1, output=0),)
        ),
    }


def _resilience_point(point: SweepPoint) -> Tuple[float, int, int, float]:
    """Worker: run one scenario, return its raw measurements.

    Returns ``(worst_gb_shortfall, gl_max_waiting, gl_packets,
    abuser_rate)``; the parent folds these against the bound and the
    tolerances so every threshold lives in exactly one place.
    """
    plan: FaultPlan = point.param("plan")
    horizon: int = point.param("horizon")
    result = run_simulation(
        _resilience_config(),
        _resilience_workload(),
        arbiter="three-class",
        horizon=horizon,
        seed=point.seed,
        fault_plan=plan,
    )
    stats = result.stats
    shortfalls = [0.0]
    for src in _OUT0_GB_INPUTS:
        rate = stats.accepted_rate(FlowId(src, 0, TrafficClass.GB))
        shortfalls.append((_OUT0_GB_SHARE - rate) / _OUT0_GB_SHARE)
    for src in _OUT1_GB_INPUTS:
        rate = stats.accepted_rate(FlowId(src, 1, TrafficClass.GB))
        shortfalls.append((_OUT1_GB_SHARE - rate) / _OUT1_GB_SHARE)
    gl_stats = stats.flow_stats(
        FlowId(_GL_COMPLIANT_INPUT, 0, TrafficClass.GL)
    )
    abuser_rate = stats.accepted_rate(
        FlowId(_GL_ABUSER_INPUT, 1, TrafficClass.GL)
    )
    return (
        max(shortfalls),
        int(gl_stats.waiting.maximum) if gl_stats.waiting.count else 0,
        int(gl_stats.waiting.count),
        abuser_rate,
    )


@dataclass
class ScenarioOutcome:
    """One fault scenario's measurements and guarantee verdicts.

    Attributes:
        name: scenario name (``none`` is the fault-free baseline).
        plan: the injected fault plan.
        worst_gb_shortfall: max over GB flows of
            ``(reserved - accepted) / reserved``.
        gl_max_waiting: worst measured wait of the compliant GL flow.
        gl_packets: compliant GL packets measured.
        abuser_rate: the policed abuser's accepted flits/cycle.
        gl_bound_value: the Eq. 1 bound the waiting is judged against.
    """

    name: str
    plan: FaultPlan
    worst_gb_shortfall: float
    gl_max_waiting: int
    gl_packets: int
    abuser_rate: float
    gl_bound_value: float

    @property
    def reserved_rate_ok(self) -> bool:
        return self.worst_gb_shortfall <= FAULT_RATE_TOLERANCE

    @property
    def gl_bound_ok(self) -> bool:
        if self.gl_packets == 0:
            return False  # the guarantee is vacuous only if packets flow
        return self.gl_max_waiting <= self.gl_bound_value

    @property
    def policer_containment_ok(self) -> bool:
        return self.abuser_rate <= CONTAINMENT_CAP

    @property
    def violated(self) -> Tuple[str, ...]:
        """Guarantees this scenario failed, in canonical order."""
        out = []
        if not self.reserved_rate_ok:
            out.append("reserved_rate")
        if not self.gl_bound_ok:
            out.append("gl_bound")
        if not self.policer_containment_ok:
            out.append("policer_containment")
        return tuple(out)

    @property
    def declared_voids(self) -> Tuple[str, ...]:
        """Union of the plan's declared voidable guarantees."""
        voids: List[str] = []
        for spec in self.plan.faults:
            for name in spec.contract.voids:
                if name not in voids:
                    voids.append(name)
        return tuple(voids)

    @property
    def honors_contract(self) -> bool:
        """Did the model only lose guarantees its faults declared?"""
        return set(self.violated) <= set(self.declared_voids)


@dataclass
class ResilienceResult:
    """The full scenario sweep."""

    horizon: int
    seed: int
    outcomes: List[ScenarioOutcome]

    @property
    def baseline(self) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.name == "none":
                return outcome
        raise SimulationError("resilience sweep lost its baseline scenario")

    @property
    def all_contracts_honored(self) -> bool:
        """Every scenario violated only what its faults declared."""
        return all(o.honors_contract for o in self.outcomes)

    def claims(self) -> List[Claim]:
        """The baseline keeps every guarantee and each fault voids only
        what it declares, judged against every scenario of
        :func:`scenario_plans` (a salvaged scenario skips the claim)."""
        names = [o.name for o in self.outcomes]
        missing = [n for n in scenario_plans(self.horizon, self.seed)
                   if n not in names]
        return [
            judge(
                "the fault-free baseline keeps every QoS guarantee",
                "§3.4, §4.2 (extension)",
                [] if "none" in names else ["none"],
                lambda: (
                    not self.baseline.violated,
                    "violated: " + (", ".join(self.baseline.violated) or "none"),
                ),
            ),
            judge(
                "each fault voids only the guarantees it declares",
                "extension (docs/FAULTS.md)",
                missing,
                lambda: (
                    self.all_contracts_honored,
                    "; ".join(
                        f"{o.name}: {','.join(o.violated) or '-'}"
                        for o in self.outcomes if o.name != "none"
                    ),
                ),
            ),
        ]

    def format(self) -> str:
        def mark(ok: bool) -> str:
            return "ok" if ok else "LOST"

        rows = []
        for o in self.outcomes:
            rows.append(
                (
                    o.name,
                    mark(o.reserved_rate_ok),
                    mark(o.gl_bound_ok),
                    mark(o.policer_containment_ok),
                    ",".join(o.declared_voids) or "-",
                    "yes" if o.honors_contract else "NO",
                )
            )
        return format_table(
            [
                "scenario",
                "reserved_rate",
                "gl_bound",
                "policer_containment",
                "declared voids",
                "honored",
            ],
            rows,
            title=(
                f"QoS guarantee survival under injected faults "
                f"(horizon={self.horizon}, seed={self.seed})"
            ),
        )


def run_faults_resilience(
    horizon: int = 60_000,
    seed: int = 23,
    jobs: int = 1,
    scenarios: Optional[Sequence[str]] = None,
    resilience: Optional[ResilienceOptions] = None,
) -> ResilienceResult:
    """Sweep the behavioral fault scenarios and judge each guarantee.

    Args:
        horizon: cycles per scenario.
        seed: shared simulation seed (also each plan's draw seed), so the
            only difference between scenarios is the injected fault.
        jobs: worker processes for the sweep (bit-identical at any count).
        scenarios: optional subset of scenario names to run.
    """
    plans = scenario_plans(horizon, seed)
    if scenarios is not None:
        unknown = sorted(set(scenarios) - set(plans))
        if unknown:
            raise SimulationError(
                f"unknown fault scenarios {unknown}; know {sorted(plans)}"
            )
        plans = {name: plans[name] for name in plans if name in scenarios}
    points = [
        SweepPoint.make(
            i, f"faults:{name}", seed=seed, name=name, plan=plan, horizon=horizon
        )
        for i, (name, plan) in enumerate(plans.items())
    ]
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    results = executor.map(_resilience_point, points)
    bound = gl_latency_bound(
        l_max=_GB_PACKET_FLITS,
        l_min=_GL_L_MIN,
        n_gl=1,
        buffer_flits=_GL_BUFFER_FLITS,
    )
    outcomes = []
    for point_result in results:
        shortfall, max_wait, gl_packets, abuser = point_result.value
        outcomes.append(
            ScenarioOutcome(
                name=point_result.point.param("name"),
                plan=point_result.point.param("plan"),
                worst_gb_shortfall=shortfall,
                gl_max_waiting=max_wait,
                gl_packets=gl_packets,
                abuser_rate=abuser,
                gl_bound_value=bound,
            )
        )
    return ResilienceResult(horizon=horizon, seed=seed, outcomes=outcomes)


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry: the guarantee-survival matrix and its claims."""
    horizon = 20_000 if fast else 60_000
    result = run_faults_resilience(horizon=horizon, jobs=jobs, resilience=resilience)
    return Report(result.format(), tuple(result.claims()))
