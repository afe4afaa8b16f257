"""Command-line entry point: ``repro-exp <experiment> [--fast]``.

Runs any of the paper's experiments and prints its report, which ends
with the paper claims judged on that run; the exit status is 1 when any
claim fails (a claim whose evidence a salvage run left out is skipped)::

    repro-exp fig4          # Fig. 4 (a) and (b)
    repro-exp fig5          # Fig. 5, steady and bursty
    repro-exp table1        # storage breakdown
    repro-exp table2        # frequency model
    repro-exp rate-adherence
    repro-exp gl-bound
    repro-exp gl-burst
    repro-exp scalability
    repro-exp circuit
    repro-exp baselines
    repro-exp composition   # Section 4.4 multi-switch study (extension)
    repro-exp faults        # QoS resilience under injected faults
    repro-exp tournament    # classic SSVC vs iterative VOQ schedulers
    repro-exp all           # everything (slow)
    repro-exp custom --config exp.json   # run a serialized experiment
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..errors import ConfigError, SweepInterrupted
from .presets import ARBITER_PRESETS, KERNELS

if TYPE_CHECKING:
    from ..resilience.options import ResilienceOptions
    from .claims import Report

#: Experiment name -> the module whose ``main(fast) -> Report`` runs it.
#: A module is imported only when its experiment runs, so ``repro-exp
#: table1`` loads neither numpy nor a simulation kernel.
EXPERIMENTS: Dict[str, str] = {
    "fig4": "fig4_bandwidth",
    "fig5": "fig5_latency_fairness",
    "table1": "table1_storage",
    "table2": "table2_frequency",
    "rate-adherence": "rate_adherence",
    "gl-bound": "gl_latency_bound",
    "gl-burst": "gl_burst",
    "scalability": "scalability",
    "circuit": "circuit_verification",
    "baselines": "baseline_comparison",
    "composition": "composition",
    "faults": "faults_resilience",
    "tournament": "tournament",
}

#: Experiments whose ``main`` additionally accepts ``jobs=`` (sweeps that
#: fan out through repro.parallel); --jobs is a no-op for the others.
PARALLEL_EXPERIMENTS = frozenset(
    {"fig4", "fig5", "rate-adherence", "scalability", "circuit",
     "composition", "faults", "tournament"}
)

#: ``--on-failure`` values, :class:`~repro.resilience.policy.FailurePolicy`'s
#: (spelled out so a run without resilience flags never loads the package).
ON_FAILURE = ("fail-fast", "salvage")


def experiment_main(name: str) -> Callable[..., "Report"]:
    """The ``main`` of experiment ``name``, importing its module."""
    return import_module(f".{EXPERIMENTS[name]}", __package__).main


def _run_custom(
    config_path: str,
    arbiter: str,
    horizon: int,
    seed: int,
    report_path: "str | None" = None,
    trace_path: "str | None" = None,
    kernel: str = "event",
) -> str:
    """Run a JSON-described experiment and return its summary table."""
    from ..obs.probe import CountingProbe, Probe
    from ..obs.report import RunReport
    from ..obs.trace import NDJSONTraceProbe
    from ..serialization import load_experiment
    from .common import run_simulation

    config, workload = load_experiment(config_path)
    probe: Optional[Probe] = None
    if trace_path:
        probe = NDJSONTraceProbe(trace_path)
    elif report_path:
        probe = CountingProbe()
    try:
        result = run_simulation(
            config, workload, arbiter=arbiter, horizon=horizon, seed=seed,
            probe=probe, kernel=kernel,
        )
    finally:
        if isinstance(probe, NDJSONTraceProbe):
            probe.close()
    if report_path:
        RunReport.from_result(result, probe=probe).save(report_path)
    return result.summary_table()


def main(argv: "list[str] | None" = None) -> int:
    """Parse arguments, run the experiment(s), print the report."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description=(
            "Reproduce the evaluation of 'Quality-of-Service for a "
            "High-Radix Switch' (DAC 2014)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "custom"],
        help="which table/figure to regenerate ('custom' runs a JSON "
        "experiment file, see --config)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shorter horizons / fewer cases (for smoke testing)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep experiments (default: 1 = serial; "
        "results are bit-identical at any value, see docs/PARALLELISM.md)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also append the report(s) to FILE",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON experiment file for 'custom' (config + workload)",
    )
    parser.add_argument(
        "--arbiter",
        choices=sorted(ARBITER_PRESETS),
        default="three-class",
        metavar="PRESET",
        help="arbiter preset for 'custom' (default: three-class; one of: "
        + ", ".join(sorted(ARBITER_PRESETS)) + ")",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=50_000,
        help="cycles to simulate for 'custom' (default: 50000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="simulation seed for 'custom' (default: 0)",
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNELS),
        default="event",
        help="simulation backend for 'custom' (default: event; event and "
        "array produce bit-identical results, flit matches them only while "
        "backpressure never binds, see docs/KERNELS.md)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="for 'custom': write a RunReport JSON (kernel counters + flow "
        "stats) to FILE after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="for 'custom': stream an NDJSON event trace to FILE during the "
        "run (implies counter collection)",
    )
    resilience_group = parser.add_argument_group(
        "resilience",
        "checkpointing, retries, and salvage for sweep experiments "
        "(see docs/PARALLELISM.md)",
    )
    resilience_group.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-attempts per failed/timed-out sweep point, with "
        "deterministic seeded-jitter backoff (default: 0)",
    )
    resilience_group.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: kill a sweep point's worker after this many wall "
        "seconds (needs --jobs >= 2; counts as a retryable failure)",
    )
    resilience_group.add_argument(
        "--on-failure",
        choices=ON_FAILURE,
        default=ON_FAILURE[0],
        help="what an exhausted retry budget means: 'fail-fast' aborts the "
        "sweep (default, historical behavior); 'salvage' records the "
        "failure and returns partial results with explicit holes",
    )
    resilience_group.add_argument(
        "--journal",
        metavar="FILE",
        help="checkpoint every completed sweep point to FILE (atomic "
        "write-temp + fsync + rename); a killed run resumes with --resume",
    )
    resilience_group.add_argument(
        "--resume",
        metavar="FILE",
        help="resume from an existing journal: journaled points are "
        "restored, only missing points are recomputed, and every "
        "re-executed point is asserted bit-identical",
    )
    resilience_group.add_argument(
        "--catalog",
        metavar="FILE",
        help="durable cross-invocation result cache: already-catalogued "
        "sweep points are served as verified cache hits, newly computed "
        "points are catalogued for future runs (see docs/CATALOG.md)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.journal and args.resume:
        parser.error("--journal starts a fresh journal; use --resume alone "
                     "to continue an existing one")
    journal_path = args.journal or args.resume
    if journal_path and args.catalog and \
            Path(journal_path).resolve() == Path(args.catalog).resolve():
        parser.error("--journal/--resume and --catalog name the same file; "
                     "a journal and a catalog each need their own")
    resilience_requested = bool(
        args.retries or args.point_timeout is not None or args.journal
        or args.resume or args.on_failure != ON_FAILURE[0]
        or args.catalog
    )
    if resilience_requested and args.experiment == "custom":
        parser.error("resilience flags apply to sweep experiments, not "
                     "'custom' single runs")
    if resilience_requested and args.experiment != "all" \
            and args.experiment not in PARALLEL_EXPERIMENTS:
        parser.error(
            f"'{args.experiment}' is not a sweep experiment; resilience "
            f"flags apply to: {', '.join(sorted(PARALLEL_EXPERIMENTS))}"
        )

    if args.kernel != "event" and args.experiment != "custom":
        parser.error("--kernel applies to 'custom' runs; the named "
                     "experiments always use the event kernel")

    if args.experiment == "custom":
        if not args.config:
            parser.error("'custom' requires --config FILE")
        report = _run_custom(
            args.config, args.arbiter, args.horizon, args.seed,
            report_path=args.report, trace_path=args.trace,
            kernel=args.kernel,
        )
        print(report)
        if args.output:
            with open(args.output, "a", encoding="utf-8") as fh:
                fh.write(report + "\n")
        return 0

    resilience: Optional[ResilienceOptions] = None
    if resilience_requested:
        # The stores load only when a sweep asks for them.
        from ..catalog import RunCatalog
        from ..resilience.options import ResilienceOptions
        from ..resilience.policy import FailurePolicy, RetryPolicy
        from ..resilience.store import RunJournal

        try:
            journal: Optional[RunJournal] = None
            if args.resume:
                journal = RunJournal(args.resume, resume=True)
            elif args.journal:
                journal = RunJournal(args.journal)
            catalog = RunCatalog(args.catalog) if args.catalog else None
            resilience = ResilienceOptions(
                retry=RetryPolicy(
                    retries=args.retries, point_timeout=args.point_timeout
                ),
                on_failure=FailurePolicy(args.on_failure),
                journal=journal,
                catalog=catalog,
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    sections = []
    failed = []
    interrupted = False
    try:
        for name in names:
            run = experiment_main(name)
            if name in PARALLEL_EXPERIMENTS:
                report = run(args.fast, jobs=args.jobs, resilience=resilience)
            else:
                report = run(args.fast)
            failed += [f"{name}: {c.claim}" for c in report.failed]
            sections.append(f"=== {name} ===\n{report.format()}\n")
            print(sections[-1])
    except SweepInterrupted as exc:
        interrupted = True
        sections.append(f"=== interrupted ===\n{exc}\n")
        print(sections[-1], file=sys.stderr)
    if resilience is not None and resilience.outcomes:
        sections.append(
            "=== resilience ===\n" + "\n".join(resilience.summary_lines()) + "\n"
        )
        print(sections[-1])
    if args.output:
        with open(args.output, "a", encoding="utf-8") as fh:
            fh.write("\n".join(sections) + "\n")
    if interrupted:
        return 130
    for claim in failed:
        print(f"claim failed: {claim}", file=sys.stderr)
    if failed:
        return 1
    if resilience is not None and resilience.failed:
        return 3  # salvage completed, but with explicit holes
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
