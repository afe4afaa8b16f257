"""``repro-bench``: run the pinned suite, emit BENCH JSON, gate regressions.

Usage::

    repro-bench                        # full suite -> BENCH_6.json
    repro-bench --quick                # CI smoke horizons
    repro-bench --kernel array         # only the array-kernel cases
    repro-bench --jobs 8               # workers for the parallel sweep case
    repro-bench --baseline auto       # compare vs. newest other BENCH_*.json
    repro-bench --baseline BENCH_2.json --threshold 0.3
    repro-bench --journal run.j --retries 1   # checkpoint the sweep cases

Exit status: 0 on success (or no comparable baseline), 1 when any case's
wall time regressed by more than ``--threshold`` (fraction, default 0.3),
2 on usage errors, 3 when ``--on-failure salvage`` left holes, 130 on a
clean cancellation. Reports are schema-checked on write *and* on read, so
a hand-edited baseline fails loudly instead of comparing garbage, and the
report file is replaced atomically (a crash mid-write never tears an
existing baseline).

Resilience flags (``--journal/--resume/--retries/--point-timeout/
--on-failure``) apply to the sweep cases, which fan out through
:class:`repro.parallel.SweepExecutor`; single-run cases ignore them. Each
case gets its *own* journal file (``<journal>.<case-name>``) — the serial
and parallel sweep cases execute identical points, so a shared journal
would let the second case restore the first case's checkpoints and fake
its wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..catalog import RunCatalog
from ..errors import ConfigError, SweepInterrupted
from ..obs.probe import CountingProbe
from ..resilience import (
    FailurePolicy,
    ResilienceOptions,
    RetryPolicy,
    RunJournal,
    atomic_write_json,
)
from ..serialization import JSONDict
from .suite import (
    OVERHEAD_CASE,
    SUITE,
    SWEEP_PARALLEL_CASE,
    SWEEP_SERIAL_CASE,
    run_case,
)

#: Factory mapping a case name to its (per-case) resilience bundle.
ResilienceFactory = Callable[[str], Optional[ResilienceOptions]]

#: Bumped when the BENCH document layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

#: Required top-level fields -> type; ``cases`` and ``probe_overhead`` are
#: checked structurally below. A hand-rolled validator keeps the harness
#: dependency-free (the container has no jsonschema).
_TOP_FIELDS: Dict[str, type] = {
    "schema_version": int,
    "suite": str,
    "python": str,
    "platform": str,
    "cases": list,
    "probe_overhead": dict,
}

_CASE_FIELDS: Dict[str, type] = {
    "name": str,
    "description": str,
    "horizon": int,
    "wall_time_s": float,
    "grants": int,
    "grants_per_sec": float,
    "peak_rss_kb": int,
    "qos": dict,
}

_OVERHEAD_FIELDS: Dict[str, type] = {
    "case": str,
    "disabled_wall_s": float,
    "enabled_wall_s": float,
    "enabled_overhead_pct": float,
}

_SPEEDUP_FIELDS: Dict[str, type] = {
    "case": str,
    "baseline": str,
    "speedup": float,
    "results_match": bool,
    "cpu_count": int,
}

_CATALOG_CACHE_FIELDS: Dict[str, type] = {
    "case": str,
    "cold_wall_s": float,
    "warm_wall_s": float,
    "points": int,
    "warm_hits": int,
    "hit_rate": float,
    "warm_speedup": float,
    "results_match": bool,
}


def validate_bench_document(doc: JSONDict) -> None:
    """Raise ``ConfigError`` unless ``doc`` is a well-formed BENCH report."""

    def check(obj: JSONDict, fields: Dict[str, type], where: str) -> None:
        for key, kind in fields.items():
            if key not in obj:
                raise ConfigError(f"BENCH document: missing {where}.{key}")
            value = obj[key]
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                continue  # JSON round-trips whole floats as ints
            if kind is bool:
                if not isinstance(value, bool):
                    raise ConfigError(
                        f"BENCH document: {where}.{key} must be bool, "
                        f"got {type(value).__name__}"
                    )
                continue
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(
                    f"BENCH document: {where}.{key} must be {kind.__name__}, "
                    f"got {type(value).__name__}"
                )

    check(doc, _TOP_FIELDS, "$")
    if doc["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ConfigError(
            f"BENCH document: schema_version {doc['schema_version']} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    names = set()
    for i, case in enumerate(doc["cases"]):
        if not isinstance(case, dict):
            raise ConfigError(f"BENCH document: cases[{i}] must be an object")
        check(case, _CASE_FIELDS, f"cases[{i}]")
        if case["wall_time_s"] <= 0:
            raise ConfigError(f"BENCH document: cases[{i}].wall_time_s must be > 0")
        if case["name"] in names:
            raise ConfigError(f"BENCH document: duplicate case {case['name']!r}")
        names.add(case["name"])
    check(doc["probe_overhead"], _OVERHEAD_FIELDS, "probe_overhead")
    # kernel_speedup appeared in schema revision BENCH_5; older documents
    # legitimately lack it, so it is validated only when present.
    for i, entry in enumerate(doc.get("kernel_speedup", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"BENCH document: kernel_speedup[{i}] must be an object")
        check(entry, _SPEEDUP_FIELDS, f"kernel_speedup[{i}]")
    # catalog_cache appeared with BENCH_6 (the run-catalog PR); validated
    # only when present for the same backward-compatibility reason.
    if "catalog_cache" in doc:
        entry = doc["catalog_cache"]
        if not isinstance(entry, dict):
            raise ConfigError("BENCH document: catalog_cache must be an object")
        check(entry, _CATALOG_CACHE_FIELDS, "catalog_cache")
        if not 0.0 <= entry["hit_rate"] <= 1.0:
            raise ConfigError(
                f"BENCH document: catalog_cache.hit_rate must be in [0, 1], "
                f"got {entry['hit_rate']}"
            )


def _reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark for this process (Linux).

    ``ru_maxrss`` is a process-lifetime maximum, so sampling it after
    every case used to report one identical number for the whole suite
    (whichever case peaked first, usually the import + first case).
    Writing ``5`` to ``/proc/self/clear_refs`` zeroes ``VmHWM``, letting
    each case report its *own* peak. Returns False where unsupported
    (non-Linux, restricted /proc) — callers then fall back to the old
    monotonic behavior rather than failing the run.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_kb() -> int:
    """High-water RSS in KiB since the last :func:`_reset_peak_rss`.

    Reads ``VmHWM`` from ``/proc/self/status`` (the counter clear_refs
    resets); falls back to ``ru_maxrss`` (KiB on Linux, bytes on macOS)
    where /proc is unavailable.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    # Falling through to ru_maxrss *is* the handling: the report then
    # carries the old monotonic number instead of failing the bench run.
    # reprolint: disable=swallowed-exception
    except (OSError, ValueError, IndexError):
        pass
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        rss //= 1024
    return int(rss)


def _run_suite(
    quick: bool,
    jobs: Optional[int] = None,
    resilience_factory: Optional[ResilienceFactory] = None,
    kernel: str = "all",
) -> Tuple[List[JSONDict], JSONDict, Optional[JSONDict]]:
    """Execute the cases, the probe-overhead pair, and the sweep summary.

    ``jobs`` overrides the worker count of cases pinned above 1 (the
    parallel sweep case); serial cases always stay serial so the baseline
    side of the speedup ratio is meaningful. ``resilience_factory``
    (when given) supplies a per-case journal/retry bundle, threaded into
    the sweep cases' executors. ``kernel`` filters the suite to one
    backend's cases (``"all"`` runs everything); the sweep summary is
    ``None`` when the filter drops the sweep pair.
    """
    cases: List[JSONDict] = []
    for case in SUITE:
        if kernel != "all" and case.kernel != kernel:
            continue
        case_jobs = case.jobs
        if jobs is not None and case.jobs > 1:
            case_jobs = jobs
        resilience = (
            resilience_factory(case.name) if resilience_factory is not None else None
        )
        _reset_peak_rss()
        start = time.perf_counter()
        grants, qos = run_case(case, quick=quick, jobs=case_jobs, resilience=resilience)
        elapsed = time.perf_counter() - start
        cases.append(
            {
                "name": case.name,
                "description": case.description,
                "kernel": case.kernel,
                "horizon": case.quick_horizon if quick else case.horizon,
                "wall_time_s": round(elapsed, 4),
                "grants": grants,
                "grants_per_sec": round(grants / elapsed, 1) if elapsed > 0 else 0.0,
                "peak_rss_kb": _peak_rss_kb(),
                "qos": {k: round(v, 6) for k, v in qos.items()},
            }
        )
    # Probe overhead: the same case with no probe (the disabled path every
    # production run takes) vs. with a CountingProbe attached. Best of 3
    # each, interleaved, so one scheduler hiccup cannot fake a regression
    # (or an improvement) in a sub-second measurement.
    disabled = min(
        _timed(lambda: run_case(OVERHEAD_CASE, quick=quick, probe=None))
        for _ in range(3)
    )
    enabled = min(
        _timed(lambda: run_case(OVERHEAD_CASE, quick=quick, probe=CountingProbe()))
        for _ in range(3)
    )
    overhead = {
        "case": OVERHEAD_CASE.name,
        "disabled_wall_s": round(disabled, 4),
        "enabled_wall_s": round(enabled, 4),
        "enabled_overhead_pct": round(100.0 * (enabled - disabled) / disabled, 2),
    }
    return cases, overhead, _sweep_summary(cases)


def _timed(fn: "Callable[[], object]") -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _kernel_speedups(cases: List[JSONDict]) -> List[JSONDict]:
    """Array-vs-event mirror pairs: speedup plus the parity check.

    Every suite case declaring a ``baseline`` mirrors an event-kernel
    case with the identical config/workload/seed/horizon, so the two runs
    must produce the same grant count and qos deltas (``results_match``
    is the bit-identical-parity contract surfacing in the perf report).
    ``cpu_count`` is recorded because numpy batching is a single-core
    speedup — it should hold even on a 1-CPU container, unlike the
    multiprocessing sweep ratio.
    """
    by_name = {case["name"]: case for case in cases}
    cpu_count = os.cpu_count() or 1
    entries: List[JSONDict] = []
    for case in SUITE:
        if case.baseline is None:
            continue
        mirror = by_name.get(case.name)
        base = by_name.get(case.baseline)
        if mirror is None or base is None:
            continue  # filtered out by --kernel
        entries.append(
            {
                "case": case.name,
                "baseline": case.baseline,
                "kernel": case.kernel,
                "baseline_wall_s": base["wall_time_s"],
                "case_wall_s": mirror["wall_time_s"],
                "baseline_grants_per_sec": base["grants_per_sec"],
                "case_grants_per_sec": mirror["grants_per_sec"],
                "speedup": round(base["wall_time_s"] / mirror["wall_time_s"], 3),
                "results_match": (
                    mirror["grants"] == base["grants"]
                    and mirror["qos"] == base["qos"]
                ),
                "cpu_count": cpu_count,
            }
        )
    return entries


def _sweep_summary(cases: List[JSONDict]) -> Optional[JSONDict]:
    """Serial-vs-parallel sweep pair: speedup and result-identity check.

    ``results_match`` is a hard contract at any core count. The speedup is
    only an *expectation* when the machine actually has more than one core
    (``speedup_expected``); a single-core container running the parallel
    case measures pure multiprocessing overhead, and recording that as a
    regression-worthy "speedup" would be dishonest. Returns ``None`` when
    a ``--kernel`` filter dropped either half of the pair.
    """
    by_name = {case["name"]: case for case in cases}
    if SWEEP_SERIAL_CASE not in by_name or SWEEP_PARALLEL_CASE not in by_name:
        return None
    serial = by_name[SWEEP_SERIAL_CASE]
    parallel = by_name[SWEEP_PARALLEL_CASE]
    cpu_count = os.cpu_count() or 1

    def payload(case: JSONDict) -> JSONDict:
        qos = dict(case["qos"])
        qos.pop("jobs", None)  # the one field allowed to differ
        qos["grants"] = case["grants"]
        return qos

    return {
        "serial_case": SWEEP_SERIAL_CASE,
        "parallel_case": SWEEP_PARALLEL_CASE,
        "serial_wall_s": serial["wall_time_s"],
        "parallel_wall_s": parallel["wall_time_s"],
        "speedup": round(serial["wall_time_s"] / parallel["wall_time_s"], 3),
        "jobs": int(parallel["qos"].get("jobs", 0)),
        "cpu_count": cpu_count,
        "speedup_expected": cpu_count > 1,
        "results_match": payload(serial) == payload(parallel),
    }


def _catalog_cache(quick: bool) -> JSONDict:
    """Cold-vs-warm run-catalog timing on the fig4 sweep case.

    Runs the serial sweep case twice against one throwaway catalog: the
    cold pass computes and catalogues every point, the warm pass must
    serve every point as a verified cache hit. The report carries the
    hit rate (a warm pass below 1.0 means the cache-key contract broke)
    and the warm/cold wall ratio — the headline number for what
    ``--catalog`` buys a resubmitted sweep.
    """
    case = next(c for c in SUITE if c.name == SWEEP_SERIAL_CASE)
    with tempfile.TemporaryDirectory(prefix="repro-bench-catalog-") as tmp:
        path = Path(tmp) / "bench.catalog"
        cold_probe = CountingProbe()
        with RunCatalog(path) as catalog:
            cold_result: List[Tuple[int, Dict[str, float]]] = []
            options = ResilienceOptions(catalog=catalog, probe=cold_probe)
            cold = _timed(
                lambda: cold_result.append(
                    run_case(case, quick=quick, resilience=options)
                )
            )
        warm_probe = CountingProbe()
        with RunCatalog(path) as catalog:
            warm_result: List[Tuple[int, Dict[str, float]]] = []
            options = ResilienceOptions(catalog=catalog, probe=warm_probe)
            warm = _timed(
                lambda: warm_result.append(
                    run_case(case, quick=quick, resilience=options)
                )
            )
    points = int(cold_probe.value("catalog.appends"))
    hits = int(warm_probe.value("catalog.hits"))
    return {
        "case": case.name,
        "cold_wall_s": round(cold, 4),
        "warm_wall_s": round(warm, 4),
        "points": points,
        "warm_hits": hits,
        "hit_rate": round(hits / points, 4) if points else 0.0,
        "warm_speedup": round(cold / warm, 3) if warm > 0 else 0.0,
        "results_match": cold_result == warm_result,
    }


def _find_baseline(output: Path) -> Optional[Path]:
    """Newest BENCH_<n>.json next to ``output``, excluding ``output`` itself."""
    candidates = []
    for path in output.parent.glob("BENCH_*.json"):
        match = _BENCH_NAME.match(path.name)
        if match and path.resolve() != output.resolve():
            candidates.append((int(match.group(1)), path))
    if not candidates:
        return None
    return max(candidates)[1]


def _compare(
    current: JSONDict, baseline: JSONDict, threshold: float
) -> Tuple[List[str], List[str]]:
    """Return (regressions, notes) comparing wall times case-by-case."""
    regressions: List[str] = []
    notes: List[str] = []
    if baseline["suite"] != current["suite"]:
        notes.append(
            f"baseline suite {baseline['suite']!r} != current "
            f"{current['suite']!r}; wall times not comparable — skipping"
        )
        return regressions, notes
    by_name = {case["name"]: case for case in baseline["cases"]}
    for case in current["cases"]:
        base = by_name.get(case["name"])
        if base is None:
            notes.append(f"{case['name']}: new case, no baseline")
            continue
        if base["horizon"] != case["horizon"]:
            notes.append(f"{case['name']}: horizon changed, not comparable")
            continue
        ratio = case["wall_time_s"] / base["wall_time_s"]
        delta_pct = 100.0 * (ratio - 1.0)
        notes.append(
            f"{case['name']}: {base['wall_time_s']:.3f}s -> "
            f"{case['wall_time_s']:.3f}s ({delta_pct:+.1f}%)"
        )
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{case['name']} regressed {delta_pct:.1f}% "
                f"(> {100 * threshold:.0f}% threshold)"
            )
    return regressions, notes


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for the ``repro-bench`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the pinned kernel benchmark suite and gate regressions",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short horizons (CI smoke); only comparable to --quick baselines",
    )
    parser.add_argument(
        "--output", metavar="FILE", default="BENCH_6.json",
        help="where to write the report (default: BENCH_6.json)",
    )
    parser.add_argument(
        "--kernel", choices=["event", "flit", "array", "all"], default="all",
        metavar="KERNEL",
        help="only run cases of this simulation backend (event, flit, "
        "array; default: all). Filtering out the sweep pair drops the "
        "parallel-sweep summary from the report",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the parallel sweep case (default: the "
        "case's pinned count; serial cases are never parallelized)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE|auto", default="auto",
        help="previous BENCH_*.json to compare against; 'auto' picks the "
        "newest one next to --output; 'none' disables comparison",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.3, metavar="FRACTION",
        help="wall-time regression tolerance per case (default: 0.3 = 30%%)",
    )
    resilience_group = parser.add_argument_group(
        "resilience",
        "journaling/retry/salvage for the sweep cases "
        "(see docs/PARALLELISM.md); single-run cases are unaffected",
    )
    resilience_group.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed sweep point up to N times with deterministic "
        "seeded-jitter backoff (default: 0)",
    )
    resilience_group.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry a sweep point running longer than this "
        "(parallel sweep cases only; default: no timeout)",
    )
    resilience_group.add_argument(
        "--on-failure",
        choices=[policy.value for policy in FailurePolicy],
        default=FailurePolicy.FAIL_FAST.value,
        help="fail-fast aborts on the first exhausted point (default); "
        "salvage records the hole, keeps going, and exits 3",
    )
    resilience_group.add_argument(
        "--journal", metavar="FILE", default=None,
        help="checkpoint each completed sweep point; every case journals to "
        "its own FILE.<case-name> so the serial/parallel pair cannot share "
        "checkpoints and fake the speedup",
    )
    resilience_group.add_argument(
        "--resume", metavar="FILE", default=None,
        help="resume from a prior --journal FILE prefix: per-case journals "
        "that exist are restored, missing ones start fresh",
    )
    resilience_group.add_argument(
        "--catalog", metavar="FILE", default=None,
        help="durable result cache for the sweep cases; every case uses its "
        "own FILE.<case-name> so the serial/parallel pair cannot share "
        "cached points and fake the speedup (see docs/CATALOG.md)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error(f"--threshold must be >= 0, got {args.threshold}")
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.journal is not None and args.resume is not None:
        parser.error("--journal and --resume are mutually exclusive")

    resilience_requested = (
        args.retries > 0
        or args.point_timeout is not None
        or args.on_failure != FailurePolicy.FAIL_FAST.value
        or args.journal is not None
        or args.resume is not None
        or args.catalog is not None
    )
    created_options: List[ResilienceOptions] = []
    created_catalogs: List[RunCatalog] = []
    factory: Optional[ResilienceFactory] = None
    if resilience_requested:
        try:
            retry = RetryPolicy(retries=args.retries, point_timeout=args.point_timeout)
        except ConfigError as exc:
            print(f"repro-bench: {exc}", file=sys.stderr)
            return 2
        policy = FailurePolicy(args.on_failure)
        journal_base = args.journal if args.journal is not None else args.resume

        def _make_options(case_name: str) -> ResilienceOptions:
            journal = None
            if journal_base is not None:
                case_path = Path(f"{journal_base}.{case_name}")
                journal = RunJournal(
                    case_path,
                    resume=args.resume is not None and case_path.exists(),
                )
            catalog = None
            if args.catalog is not None:
                # Per-case catalogs for the same reason as per-case
                # journals: the serial/parallel pair runs identical
                # points, and a shared cache would fake the speedup.
                catalog = RunCatalog(f"{args.catalog}.{case_name}")
                created_catalogs.append(catalog)
            options = ResilienceOptions(
                retry=retry, on_failure=policy, journal=journal, catalog=catalog
            )
            created_options.append(options)
            return options

        factory = _make_options

    try:
        cases, overhead, sweep = _run_suite(
            args.quick, jobs=args.jobs, resilience_factory=factory,
            kernel=args.kernel,
        )
    except SweepInterrupted as exc:
        print(f"repro-bench: interrupted — {exc}", file=sys.stderr)
        for options in created_options:
            for line in options.summary_lines():
                print(f"  {line}", file=sys.stderr)
        return 130
    finally:
        for catalog in created_catalogs:
            catalog.close()
    speedups = _kernel_speedups(cases)
    catalog_cache = _catalog_cache(args.quick) if args.kernel == "all" else None
    document: JSONDict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "cases": cases,
        "probe_overhead": overhead,
        "kernel_speedup": speedups,
    }
    if sweep is not None:
        document["parallel_sweep"] = sweep
    if catalog_cache is not None:
        document["catalog_cache"] = catalog_cache
    outcomes = [
        outcome for options in created_options for outcome in options.outcomes
    ]
    if outcomes:
        document["resilience"] = [outcome.to_dict() for outcome in outcomes]
    validate_bench_document(document)

    output = Path(args.output)
    atomic_write_json(output, document)
    for case in cases:
        print(
            f"{case['name']:<20} {case['wall_time_s']:>8.3f}s "
            f"{case['grants_per_sec']:>12.0f} grants/s  rss {case['peak_rss_kb']} KiB"
        )
    print(
        f"probe overhead ({overhead['case']}): disabled "
        f"{overhead['disabled_wall_s']:.3f}s, enabled {overhead['enabled_wall_s']:.3f}s "
        f"({overhead['enabled_overhead_pct']:+.1f}%)"
    )
    for entry in speedups:
        print(
            f"kernel speedup {entry['case']} vs {entry['baseline']}: "
            f"{entry['baseline_wall_s']:.3f}s -> {entry['case_wall_s']:.3f}s "
            f"({entry['speedup']:.2f}x), results "
            f"{'identical' if entry['results_match'] else 'DIVERGED'}"
        )
    if sweep is not None:
        speedup_note = (
            f"-> {sweep['speedup']:.2f}x"
            if sweep["speedup_expected"]
            else f"-> {sweep['speedup']:.2f}x (single core: speedup not expected, "
            "measuring fan-out overhead only)"
        )
        print(
            f"parallel sweep (jobs={sweep['jobs']}, cpus={sweep['cpu_count']}): serial "
            f"{sweep['serial_wall_s']:.3f}s, parallel {sweep['parallel_wall_s']:.3f}s "
            f"{speedup_note}, results "
            f"{'identical' if sweep['results_match'] else 'DIVERGED'}"
        )
    if catalog_cache is not None:
        print(
            f"catalog cache ({catalog_cache['case']}): cold "
            f"{catalog_cache['cold_wall_s']:.3f}s, warm "
            f"{catalog_cache['warm_wall_s']:.3f}s "
            f"({catalog_cache['warm_speedup']:.1f}x), "
            f"{catalog_cache['warm_hits']}/{catalog_cache['points']} hits "
            f"({100.0 * catalog_cache['hit_rate']:.0f}%), results "
            f"{'identical' if catalog_cache['results_match'] else 'DIVERGED'}"
        )
    if outcomes:
        print("resilience:")
        for options in created_options:
            for line in options.summary_lines():
                print(f"  {line}")
    print(f"wrote {output}")
    mismatched = [e for e in speedups if not e["results_match"]]
    for entry in mismatched:
        print(
            f"REGRESSION: {entry['case']} diverged from {entry['baseline']} — "
            "kernel parity contract violated",
            file=sys.stderr,
        )
    if mismatched:
        return 1
    if sweep is not None and not sweep["results_match"]:
        print(
            "REGRESSION: parallel sweep results diverged from serial — "
            "determinism contract violated",
            file=sys.stderr,
        )
        return 1
    if catalog_cache is not None and (
        not catalog_cache["results_match"] or catalog_cache["hit_rate"] < 1.0
    ):
        print(
            "REGRESSION: warm catalog run diverged from cold "
            f"(hit rate {catalog_cache['hit_rate']:.2f}) — "
            "cache-key contract violated",
            file=sys.stderr,
        )
        return 1
    if any(options.failed for options in created_options):
        print(
            "repro-bench: salvage left failed sweep points (see resilience "
            "summary); resume with --resume to fill the holes",
            file=sys.stderr,
        )
        return 3

    if args.baseline == "none":
        return 0
    if args.baseline == "auto":
        baseline_path = _find_baseline(output)
        if baseline_path is None:
            print("no baseline BENCH_*.json found; skipping comparison")
            return 0
    else:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found", file=sys.stderr)
            return 2
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        validate_bench_document(baseline)
    except (json.JSONDecodeError, ConfigError) as exc:
        print(f"invalid baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2

    regressions, notes = _compare(document, baseline, args.threshold)
    print(f"comparison vs {baseline_path}:")
    for note in notes:
        print(f"  {note}")
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print("no wall-time regressions")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
