"""Scheduler tournament — classic SSVC vs iterative VOQ matching.

The paper's Swizzle Switch arbitrates each output independently (SSVC,
Section 3); the input-queued switching literature instead computes one
switch-wide matching per cycle over per-input per-output VOQs (iSLIP,
QPS-r, SW-QPS — see docs/SCHEDULERS.md). This experiment races the two
families on the same traffic:

* **uniform** — uniform random best-effort traffic, the canonical VOQ
  benchmark: classic mode funnels each input's BE packets through one
  FIFO, so head-of-line blocking caps it near 58.6 % while the iterative
  schedulers approach 100 % of the channel;
* **hotspot** — half of every input's load targets one output (the
  memory-controller scenario from the paper's introduction);
* **bursty** — the uniform pattern injected through the Section 4.3
  two-state on/off process;
* **faulted** — uniform traffic with an input stall, a dead crosspoint,
  and lossy delivery injected (:mod:`repro.faults`); VOQ isolates the
  dead crosspoint to one queue where classic mode blocks the whole input.

Every (policy, scenario, rate) cell runs through the resilient
:class:`~repro.parallel.SweepExecutor`, so `--jobs N` fans the tournament
out bit-identically and `--retries/--journal/--resume` apply. The report
ends with a throughput/delay frontier at saturation plus the claims
table: iSLIP delivers ~100 % uniform throughput, SW-QPS >= QPS-r, and
every VOQ scheduler beats the HOL-limited classic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..faults import FaultPlan, crosspoint_dead, input_stall, packet_drop
from ..metrics.report import format_table
from ..parallel.envelope import SweepPoint, result_hash
from ..parallel.executor import SweepExecutor
from ..resilience.options import ResilienceOptions
from .claims import Claim, Report, judge
from .common import run_simulation, voq_config

#: Arbitration policies raced against each other. ``ssvc`` runs the
#: paper's per-output scheme on a classic partially-queued port; the
#: other three are switch-wide iterative matchers on full VOQs.
POLICIES: Tuple[str, ...] = ("ssvc", "islip", "qps-r", "sw-qps")

#: Policy -> arbiter preset. The ``ssvc`` column uses the paper's full
#: three-class arbiter (the SSVC GB plane plus the LRG BE plane), because
#: the bare ``ssvc`` preset arbitrates reservations only and the
#: tournament's BE scenarios would have nothing to schedule.
POLICY_ARBITERS: Dict[str, str] = {
    "ssvc": "three-class",
    "islip": "islip",
    "qps-r": "qps-r",
    "sw-qps": "sw-qps",
}

#: Policies that need ``SwitchConfig.voq`` (the rest run classic mode).
VOQ_POLICIES = frozenset({"islip", "qps-r", "sw-qps"})

#: Traffic scenarios (see the module docstring).
SCENARIOS: Tuple[str, ...] = ("uniform", "hotspot", "bursty", "faulted")

#: Offered flits/input/cycle swept along the x-axis.
DEFAULT_RATES: Tuple[float, ...] = (0.6, 0.8, 0.9, 0.95, 0.99)

_RADIX = 8
_PACKET_FLITS = 8
_BUFFER_FLITS = 32


def tournament_config(policy: str) -> "object":
    """The switch for one policy: full-VOQ for the iterative matchers,
    the same geometry with classic partially-queued ports for SSVC.

    Both share zero arbitration bubble and 32-flit buffers so the only
    variable is the queueing discipline plus the scheduler itself.
    """
    config = voq_config(
        radix=_RADIX, buffer_flits=_BUFFER_FLITS, arbitration_cycles=0
    )
    if policy not in VOQ_POLICIES:
        config = replace(config, voq=False)
    return config


def _fault_plan(seed: int, horizon: int) -> FaultPlan:
    """The ``faulted`` scenario's injections (no counter faults: the
    iterative schedulers carry no auxVC counters to flip)."""
    return FaultPlan(
        seed=seed,
        faults=(
            input_stall(0, start=horizon // 4, duration=horizon // 8),
            crosspoint_dead(1, 0),
            packet_drop(0.05, output=_RADIX - 1),
        ),
    )


def _tournament_workload(scenario: str, rate: float) -> "object":
    from ..traffic.patterns import (
        bursty_uniform_workload,
        hotspot_workload,
        uniform_be_workload,
    )

    if scenario in ("uniform", "faulted"):
        return uniform_be_workload(_RADIX, rate, packet_length=_PACKET_FLITS)
    if scenario == "bursty":
        return bursty_uniform_workload(_RADIX, rate, packet_length=_PACKET_FLITS)
    if scenario == "hotspot":
        return hotspot_workload(
            _RADIX, hotspot=0, inject_rate=rate, packet_length=_PACKET_FLITS
        )
    raise ConfigError(f"unknown tournament scenario {scenario!r}; valid: {list(SCENARIOS)}")


def _tournament_point(point: SweepPoint) -> Tuple[float, float, int]:
    """Worker: one (policy, scenario, rate) cell.

    Module-level and rebuilt entirely from the envelope so the executor
    can pickle it into worker processes. Returns
    ``(throughput, mean_delay, grants)`` where throughput is delivered
    flits/cycle averaged over the ports and mean_delay is the
    delivered-packet-weighted mean creation-to-delivery latency.
    """
    policy: str = point.param("policy")
    scenario: str = point.param("scenario")
    rate: float = point.param("rate")
    horizon: int = point.param("horizon")
    plan = _fault_plan(point.seed, horizon) if scenario == "faulted" else None
    result = run_simulation(
        tournament_config(policy),
        _tournament_workload(scenario, rate),
        arbiter=POLICY_ARBITERS.get(policy, policy),
        horizon=horizon,
        seed=point.seed,
        fault_plan=plan,
    )
    stats = result.stats
    throughput = (
        sum(stats.output_throughput(o) for o in range(_RADIX)) / _RADIX
    )
    delivered = 0
    delay_sum = 0.0
    for flow in stats.flows:
        latency = stats.flow_stats(flow).latency
        if latency.count:
            delivered += latency.count
            delay_sum += latency.mean * latency.count
    mean_delay = delay_sum / delivered if delivered else 0.0
    return throughput, mean_delay, result.grants


@dataclass
class TournamentResult:
    """The full policy x scenario x rate grid.

    Attributes:
        rates: swept offered loads (flits/input/cycle).
        policies: raced policy presets, in tournament order.
        scenarios: traffic scenarios run.
        throughput: ``(scenario, policy, rate) ->`` flits/cycle/port.
        delay: ``(scenario, policy, rate) ->`` mean packet latency.
        point_values: raw worker payloads in sweep-index order, kept so
            :meth:`hash` digests exactly what the executor merged (the
            serial-vs-parallel determinism checks compare these digests).
    """

    rates: Tuple[float, ...]
    policies: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    throughput: Dict[Tuple[str, str, float], float] = field(default_factory=dict)
    delay: Dict[Tuple[str, str, float], float] = field(default_factory=dict)
    point_values: List[Tuple[float, float, int]] = field(default_factory=list)

    def hash(self) -> str:
        """Digest of the merged sweep payloads (jobs-independent)."""
        return result_hash(self.point_values)

    @property
    def saturation_rate(self) -> float:
        return self.rates[-1]

    def _cell(self, table: Dict[Tuple[str, str, float], float],
              scenario: str, policy: str, rate: float) -> Optional[float]:
        return table.get((scenario, policy, rate))

    def scenario_table(self, scenario: str) -> str:
        """Throughput (and delay) per rate, one column pair per policy."""
        headers = ["offered"] + [
            f"{p} thr" for p in self.policies
        ] + [f"{p} delay" for p in self.policies]
        rows = []
        for rate in self.rates:
            row: List[object] = [rate]
            row += [self._cell(self.throughput, scenario, p, rate)
                    for p in self.policies]
            row += [self._cell(self.delay, scenario, p, rate)
                    for p in self.policies]
            if any(v is not None for v in row[1:]):
                rows.append(row)
        return format_table(
            headers, rows,
            title=f"tournament — {scenario} (flits/cycle/port, cycles)",
        )

    def frontier(self, scenario: Optional[str] = None) -> str:
        """The throughput/delay frontier at the saturation rate point."""
        if scenario is None:
            scenario = (
                "uniform" if "uniform" in self.scenarios else self.scenarios[0]
            )
        top = self.saturation_rate
        rows = []
        for policy in self.policies:
            thr = self._cell(self.throughput, scenario, policy, top)
            dly = self._cell(self.delay, scenario, policy, top)
            if thr is None:
                continue
            mode = "voq" if policy in VOQ_POLICIES else "classic"
            rows.append((policy, mode, thr, dly))
        return format_table(
            ["policy", "queueing", "throughput", "mean delay"],
            rows,
            title=(
                f"throughput/delay frontier — {scenario} @ offered {top:g}"
            ),
        )

    def claims(self) -> List[Claim]:
        """The source papers' headline claims, judged on the uniform
        scenario at the saturation rate (a salvaged cell skips its claims):

        * iSLIP achieves ~100 % throughput under uniform traffic
          (McKeown 1999) — accepted >= 95 % of offered;
        * SW-QPS matches or beats QPS-r from the same per-cycle proposal
          budget (arXiv:2010.08620);
        * every VOQ matcher clears the classic port's head-of-line
          ceiling (Karol's 58.6 % limit applies as offered -> 1).
        """
        top = self.saturation_rate
        thr = {p: self._cell(self.throughput, "uniform", p, top)
               for p in self.policies}

        def missing(policies: Sequence[str]) -> List[str]:
            return [f"uniform:{p}@{top:g}" for p in policies if thr.get(p) is None]

        floor = 0.95 * min(top, 1.0)
        voq = [p for p in self.policies if p in VOQ_POLICIES]
        return [
            judge(
                "islip ~100% uniform throughput", "McKeown 1999",
                missing(("islip",)),
                lambda: (
                    thr["islip"] >= floor,
                    f"accepted {thr['islip']:.4f} vs floor {floor:.4f} "
                    f"(offered {top:g})",
                ),
            ),
            judge(
                "sw-qps >= qps-r at saturation", "arXiv:2010.08620",
                missing(("sw-qps", "qps-r")),
                lambda: (
                    thr["sw-qps"] >= thr["qps-r"] - 1e-12,
                    f"sw-qps {thr['sw-qps']:.4f} vs qps-r {thr['qps-r']:.4f}",
                ),
            ),
            judge(
                "every VOQ matcher beats the classic HOL baseline",
                "Karol 1987 (58.6% HOL limit)",
                missing(("ssvc", *voq)) or ([] if voq else ["voq policies"]),
                lambda: (
                    min(thr[p] for p in voq) > thr["ssvc"],
                    f"worst voq {min(thr[p] for p in voq):.4f} vs classic "
                    f"{thr['ssvc']:.4f}",
                ),
            ),
        ]

    def format(self) -> str:
        sections = [self.scenario_table(s) for s in self.scenarios]
        sections.append(self.frontier())
        return "\n\n".join(sections)


def run_tournament(
    rates: Sequence[float] = DEFAULT_RATES,
    scenarios: Sequence[str] = SCENARIOS,
    policies: Sequence[str] = POLICIES,
    horizon: int = 20_000,
    seed: int = 42,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> TournamentResult:
    """Run the tournament grid through the resilient sweep executor.

    Args:
        rates: offered flits/input/cycle per point.
        scenarios: subset of :data:`SCENARIOS` to run.
        policies: subset of :data:`POLICIES` to race.
        horizon: cycles per point.
        seed: simulation seed, pinned per point so the grid's results are
            independent of its composition and of ``jobs``.
        jobs: sweep worker processes (bit-identical at any count).
        resilience: retry/journal/salvage options; under salvage the grid
            may have holes, which the tables and claims simply skip.
    """
    unknown = sorted(set(scenarios) - set(SCENARIOS))
    if unknown:
        raise ConfigError(
            f"unknown tournament scenarios {unknown}; valid: {list(SCENARIOS)}"
        )
    result = TournamentResult(
        rates=tuple(rates),
        policies=tuple(policies),
        scenarios=tuple(scenarios),
    )
    points = []
    for scenario in scenarios:
        for policy in policies:
            for rate in rates:
                points.append(SweepPoint.make(
                    len(points),
                    f"tournament:{scenario}:{policy}@{rate:g}",
                    seed=seed,
                    policy=policy,
                    scenario=scenario,
                    rate=rate,
                    horizon=horizon,
                ))
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    for point_result in executor.map(_tournament_point, points):
        scenario = point_result.point.param("scenario")
        policy = point_result.point.param("policy")
        rate = point_result.point.param("rate")
        throughput, delay, _grants = point_result.value
        result.throughput[(scenario, policy, rate)] = throughput
        result.delay[(scenario, policy, rate)] = delay
        result.point_values.append(point_result.value)
    return result


def main(
    fast: bool = False,
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Report:
    """CLI entry: the scenario tables, the frontier, and the claims."""
    if fast:
        result = run_tournament(
            rates=(0.99,), scenarios=("uniform",), horizon=10_000,
            jobs=jobs, resilience=resilience,
        )
    else:
        result = run_tournament(jobs=jobs, resilience=resilience)
    return Report(
        f"{result.format()}\n\nsweep hash: {result.hash()}",
        tuple(result.claims()),
    )
