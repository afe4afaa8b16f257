"""Measurement loops: the untraced end-to-end run and the traced run.

Both loops run replicates until ``--seconds`` have passed and at least a
minimum count is reached, check every replicate through
:func:`perfbench.workloads.gate`, and return the metrics named in
``BENCHMARK.json``. Host time is wall time (``time.perf_counter``); every
simulated statistic enters only through the correctness gate.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog import RunCatalog
from repro.obs.probe import CountingProbe
from repro.parallel import SweepExecutor
from repro.resilience import ResilienceOptions, RunJournal, point_key, worker_name

from . import workloads as wl
from .calibrate import REFERENCE_S, START_REFERENCE_S, calibration_loop, interpreter_start
from .layers import KERNEL_LAYERS, harness_targets, kernel_targets
from .spans import Tracer

HERE = Path(__file__).resolve().parent

#: End-to-end replicates per run, at least: 40 leaves 10 samples above p75.
MIN_REPLICATES = 40
#: Traced replicates per run, at least.
MIN_TRACED = 6
#: Fresh-interpreter set-ups per end-to-end run (``setup_s`` is their
#: median). They are spread evenly over ``--seconds``, so the probes sample
#: the whole run rather than one moment of a noisy host.
SETUP_PROBES = 9
#: Warm all-hit passes after each replicate, timed as one block between two
#: calibration calls (``warm_sweep_ms`` is the median normalised pass).
WARM_EACH = 10
#: Catalogued replicates a kernel workload's warm pass re-serves.
WARM_POINTS = 8

Metrics = Dict[str, Dict[str, Any]]
perf = time.perf_counter


@dataclass
class Gate:
    """Replicates attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, errors: List[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


@dataclass
class Run:
    """One benchmark invocation's context."""

    workload: str
    seed: int
    seconds: float
    scratch: Path
    gate: Gate = field(default_factory=Gate)
    pinned: Dict[str, List[str]] = field(default_factory=wl.load_pinned)
    metrics: Metrics = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: wrong outputs outside any one replicate (e.g. a warm catalog pass)
    problems: List[str] = field(default_factory=list)

    def emit(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(
        self, index: int, digest: str, violations: List[str], extra: Sequence[str] = ()
    ) -> None:
        errors = wl.gate(self.workload, self.seed, index, digest, violations, self.pinned)
        self.gate.check(errors + [f"{self.workload}[{index}]: {e}" for e in extra])

    def fail(self, problem: str) -> None:
        self.problems.append(f"{self.workload}: {problem}")

    @property
    def correct(self) -> bool:
        return self.gate.failed == 0 and not self.problems

    def keep_going(self, count: int, minimum: int, deadline: float) -> bool:
        return count < minimum or perf() < deadline


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(p25, p50, p75) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup_once(run: Run) -> float:
    """Wall time of a fresh interpreter that imports and builds replicate 0.

    No timeout: ``subprocess`` waits with a timeout by polling in steps of
    up to 50 ms, which would quantise the measurement. A blocking wait
    returns the moment the child exits.
    """
    start = perf()
    subprocess.run(
        [
            sys.executable, str(HERE / "setup_probe.py"),
            run.workload, str(run.seed), str(run.scratch),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return perf() - start


class Sampler:
    """Per-replicate host-time samples plus the side measurements.

    Each replicate and each block of warm passes is bracketed by two runs
    of the calibration loop and normalised by their mean. Set-up
    probes and warm passes are spread over the run between replicates, so
    every metric samples the same mix of quiet and busy host periods.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.start = perf()
        self.calibrations: List[float] = []
        self.times: List[float] = []
        self.norms: List[float] = []
        self.grants: List[int] = []
        self.starts: List[float] = []
        self.setups: List[float] = []
        self.setup_norms: List[float] = []
        self.warm: List[float] = []
        self.warm_norms: List[float] = []

    def bracket(self, body: Callable[[], Any]) -> Tuple[float, Any]:
        """Run ``body`` between two calibration calls: (their mean, value)."""
        before = calibration_loop()
        value = body()
        after = calibration_loop()
        self.calibrations += [before, after]
        return (before + after) / 2, value

    def replicate(self, body: Callable[[], Any], grants: Callable[[Any], int]) -> Any:
        calibration, (elapsed, value) = self.bracket(lambda: timed(body))
        self.times.append(elapsed)
        self.norms.append(elapsed / calibration)
        self.grants.append(grants(value))
        due = self.start + (len(self.setups) + 0.5) * self.run.seconds / SETUP_PROBES
        if len(self.setups) < SETUP_PROBES and perf() >= due:
            self.setup()
        return value

    def setup(self) -> None:
        """One set-up probe between two bare interpreter starts."""
        before = interpreter_start()
        elapsed = setup_once(self.run)
        after = interpreter_start()
        self.starts += [before, after]
        self.setups.append(elapsed)
        self.setup_norms.append(2 * elapsed / (before + after))

    def warm_block(self, body: Callable[[], Any], times: Callable[[Any], List[float]]) -> Any:
        """Run a block of warm passes; ``times`` picks their host times
        out of the block's value."""
        calibration, value = self.bracket(body)
        self.warm.extend(times(value))
        self.warm_norms.extend(t / calibration for t in times(value))
        return value

    def emit(self, rss_mb: float) -> None:
        while len(self.setups) < SETUP_PROBES:
            self.setup()
        emit_end_to_end(self.run, self, rss_mb)


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = perf()
    value = fn()
    return perf() - start, value


def timed_pair(
    first: Callable[[], Any], second: Callable[[], Any], swap: bool
) -> Tuple[Tuple[float, Any], Tuple[float, Any]]:
    """Time two bodies back to back, ``second`` first when ``swap``.

    Pairs alternate their order so neither side always runs on a host
    warmed (or disturbed) by the other.
    """
    if swap:
        later = timed(second)
        return timed(first), later
    earlier = timed(first)
    return earlier, timed(second)


# ------------------------------------------------------------ warm catalog


def record_replicates(
    run: Run, seeds: List[int], values: List[Tuple[int, str]]
) -> Tuple[RunCatalog, List[Any]]:
    """Journal and catalogue measured replicates as sweep points.

    Each point is recorded exactly as the sweep executor records a point
    it has just computed, under the replicate worker
    :func:`perfbench.workloads.replicate_point`.
    """
    fn_name = worker_name(wl.replicate_point)
    points = wl.replicate_points(run.workload, seeds)
    catalog = RunCatalog(run.scratch / "replicates.catalog")
    with RunJournal(run.scratch / "replicates.journal") as journal:
        sweep = journal.register_sweep(fn_name, points)
        for point, value in zip(points, values):
            journal.record(sweep, point_key(fn_name, point), point, value)
            catalog.record(fn_name, sweep, point, value)
    return catalog, points


def warm_pass(
    run: Run, catalog: RunCatalog, points: List[Any], values: List[Tuple[int, str]]
) -> float:
    """Map the replicate worker over catalogued points; all must be hits."""
    options = ResilienceOptions(catalog=catalog)
    elapsed, results = timed(
        lambda: SweepExecutor(jobs=1, resilience=options).map(wl.replicate_point, points)
    )
    if [r.value for r in results] != values:
        run.fail("a warm catalog pass changed a replicate")
    if options.outcomes[-1].cache_hits != len(points):
        run.fail("a warm catalog pass missed the catalog")
    return elapsed


# ------------------------------------------------------ kernel workloads


def kernel_end_to_end(run: Run) -> None:
    workload = wl.KERNEL_WORKLOADS[run.workload]

    # Replicate 0 warms imports and caches; it is checked, twin included,
    # but not timed.
    first = workload.run(wl.replicate_seed(run.seed, 0))
    digest = wl.result_digest(first.result)
    twin = []
    if workload.array_twin:
        array = workload.run(wl.replicate_seed(run.seed, 0), kernel="array")
        if wl.result_digest(array.result) != digest:
            twin.append("array-kernel twin disagrees with the event kernel")
    run.check(0, digest, workload.predicate(first), twin)

    sampler = Sampler(run)
    seeds: List[int] = []
    values: List[Tuple[int, str]] = []
    warm: Optional[Tuple[RunCatalog, List[Any]]] = None
    deadline = perf() + run.seconds
    index = 1
    try:
        while run.keep_going(len(seeds), MIN_REPLICATES, deadline):
            seed = wl.replicate_seed(run.seed, index)
            replicate = sampler.replicate(lambda: workload.run(seed), lambda r: r.result.grants)
            digest = wl.result_digest(replicate.result)
            run.check(index, digest, workload.predicate(replicate))
            seeds.append(seed)
            values.append((replicate.result.grants, digest))
            if warm is None and len(seeds) == WARM_POINTS:
                warm = record_replicates(run, seeds, values)
            if warm is not None:
                catalog, points = warm
                sampler.warm_block(
                    lambda: [
                        warm_pass(run, catalog, points, values[:WARM_POINTS])
                        for _ in range(WARM_EACH)
                    ],
                    lambda times: times,
                )
            index += 1
    finally:
        if warm is not None:
            warm[0].close()
    sampler.emit(peak_rss_mb(False))


def emit_end_to_end(run: Run, sampler: Sampler, rss_mb: float) -> None:
    s = sampler
    _, t50, t75 = quartiles(s.times)
    _, n50, n75 = quartiles(s.norms)
    run.emit("norm_cost_p50", n50, "ratio")
    run.emit("norm_cost_p75", n75, "ratio")
    # Set-up and warm passes are drift-normalised and read as time on the
    # quiet reference host (calibrate.py).
    run.emit("setup_s", statistics.median(s.setup_norms) * START_REFERENCE_S, "s")
    run.emit("peak_rss_mb", rss_mb, "MB")
    run.emit("warm_sweep_ms", statistics.median(s.warm_norms) * REFERENCE_S * 1e3, "ms")
    run.notes.append(
        f"samples: {len(s.times)} replicates, {len(s.setups)} set-ups, "
        f"{len(s.warm)} warm passes"
    )
    # Raw host time, printed but not gated: on a shared host it moves with
    # the host's load by more than any useful bound (see README.md).
    run.notes.append(
        f"host time (not gated): grants_per_s {sum(s.grants) / sum(s.times):.1f} 1/s, "
        f"replicate_ms_p50 {t50 * 1e3:.3f} ms, replicate_ms_p75 {t75 * 1e3:.3f} ms, "
        f"set-up p50 {statistics.median(s.setups):.4f} s, "
        f"warm pass p50 {statistics.median(s.warm) * 1e3:.3f} ms, "
        f"calibration p50 {statistics.median(s.calibrations) * 1e3:.3f} ms, "
        f"interpreter start p50 {statistics.median(s.starts):.4f} s"
    )


def kernel_traced(run: Run) -> None:
    workload = wl.KERNEL_WORKLOADS[run.workload]
    tracer = Tracer(kernel_targets())
    counts: Dict[str, int] = {}
    probe_overheads: List[float] = []
    trace_overheads: List[float] = []
    array_ms: List[float] = []
    speedups: List[float] = []
    seeds: List[int] = []
    values: List[Tuple[int, str]] = []

    workload.run(wl.replicate_seed(run.seed, 0))  # warm-up, untimed
    deadline = perf() + run.seconds
    index = 0
    while run.keep_going(len(seeds), MIN_TRACED, deadline):
        seed = wl.replicate_seed(run.seed, index)
        (plain_s, plain), (probed_s, probed) = timed_pair(
            lambda: workload.run(seed),
            lambda: workload.run(seed, CountingProbe()),
            swap=index % 2 == 0,
        )
        probe = CountingProbe()
        with tracer:
            traced_s, traced = timed(lambda: workload.run(seed, probe))
        for name, total in probe.counters.items():
            counts[name] = counts.get(name, 0) + total

        digest = wl.result_digest(plain.result)
        mismatches = []
        if wl.result_digest(probed.result) != digest:
            mismatches.append("a CountingProbe changed the result")
        if wl.result_digest(traced.result) != digest:
            mismatches.append("tracing changed the result")
        if workload.array_twin:
            array_s, array = timed(lambda: workload.run(seed, kernel="array"))
            if wl.result_digest(array.result) != digest:
                mismatches.append("array-kernel twin disagrees with the event kernel")
            array_ms.append(array_s * 1e3)
            speedups.append(plain_s / array_s)
        run.check(index, digest, workload.predicate(plain), mismatches)
        probe_overheads.append(probed_s / plain_s - 1)
        trace_overheads.append(traced_s / probed_s - 1)
        seeds.append(seed)
        values.append((plain.result.grants, digest))
        index += 1

    emit_kernel_layers(run, tracer, counts, len(seeds))
    emit_array_and_obs(run, array_ms, speedups, probe_overheads, trace_overheads)

    harness = Tracer(harness_targets())
    with harness:
        catalog, points = record_replicates(run, seeds, values)
        try:
            for _ in range(5):
                warm_pass(run, catalog, points, values)
        finally:
            catalog.close()
    map_s = ratio(harness.total_s("SweepExecutor.map"), harness.calls("SweepExecutor.map"))
    emit_harness_layers(
        run, map_s, harness, len(seeds), harness, catalog.hits,
        catalog.hits + catalog.misses, overhead=0.0,
    )
    run.notes.extend(span_table(tracer, len(seeds)))


def emit_kernel_layers(run: Run, tracer: Tracer, counts: Dict[str, int], replicates: int) -> None:
    """Per-replicate self times and the layers' work ratios."""
    n = max(replicates, 1)
    c = tracer.counters
    root = tracer.stats["Simulation.run"]
    grants = counts.get("kernel.grants", 0)
    built = tracer.calls("FlowSource.make_packet")
    admitted = c.get("buffers.admitted", 0)
    select_calls = c.get("qos.select_calls", 0)
    match_calls = c.get("qos.match_calls", 0)

    run.emit("traffic.calls", tracer.layer_calls("traffic") / n, "count")
    run.emit("traffic.self_s", tracer.layer_self_s("traffic") / n, "s")
    run.emit("traffic.topup_waste_ratio", ratio(built - admitted, built), "ratio")
    run.emit("buffers.self_s", tracer.layer_self_s("buffers") / n, "s")
    run.emit("buffers.admit_ratio", ratio(admitted, c.get("buffers.inject_calls", 0)), "ratio")
    run.emit(
        "buffers.head_scans_per_grant",
        ratio(tracer.calls("InputPort.head_for_output"), grants),
        "count",
    )
    run.emit("qos.select_calls", select_calls / n, "count")
    run.emit("qos.select_self_s", tracer.layer_self_s("qos.select") / n, "s")
    run.emit("qos.contenders_per_select", ratio(c.get("qos.contenders", 0), select_calls), "count")
    run.emit("qos.decline_ratio", ratio(c.get("qos.declines", 0), select_calls), "ratio")
    run.emit("qos.match_self_s", tracer.layer_self_s("qos.match") / n, "s")
    run.emit("qos.pairs_per_match", ratio(c.get("qos.pairs", 0), match_calls), "count")
    run.emit("channel.self_s", tracer.layer_self_s("channel") / n, "s")
    run.emit("stats.self_s", tracer.layer_self_s("stats") / n, "s")
    run.emit("kernel.self_s", root.self_s / n, "s")
    run.emit("kernel.self_share", ratio(root.self_s, root.total_s), "ratio")
    run.emit("kernel.grants_per_wake", ratio(grants, counts.get("kernel.wakes", 0)), "count")
    run.emit(
        "kernel.arbitrations_per_grant",
        ratio(counts.get("kernel.arbitrations", 0), grants),
        "count",
    )
    run.emit(
        "kernel.overflow_scans_per_grant",
        ratio(counts.get("kernel.overflow_flows_scanned", 0), grants),
        "count",
    )
    accounted = root.self_s + sum(tracer.layer_self_s(layer) for layer in KERNEL_LAYERS)
    run.notes.append(
        f"traced Simulation.run: {root.total_s / n:.4f} s per replicate; "
        f"layer self times account for {ratio(accounted, root.total_s):.6f} of it"
    )


def emit_array_and_obs(
    run: Run,
    array_ms: List[float],
    speedups: List[float],
    probe_overheads: List[float],
    trace_overheads: List[float],
) -> None:
    run.emit("array.replicate_ms_p50", quartiles(array_ms)[1] if array_ms else 0.0, "ms")
    run.emit("array.speedup", quartiles(speedups)[1] if speedups else 0.0, "ratio")
    p25, p50, p75 = quartiles(probe_overheads)
    run.emit("obs.probe_overhead_frac", p50, "ratio")
    run.emit("obs.probe_overhead_frac_p25", p25, "ratio")
    run.emit("obs.probe_overhead_frac_p75", p75, "ratio")
    run.emit("trace.overhead_frac", quartiles(trace_overheads)[1], "ratio")


def emit_harness_layers(
    run: Run,
    map_s: float,
    recorder: Tracer,
    recorded: int,
    reader: Tracer,
    hits: int,
    lookups: int,
    overhead: float,
) -> None:
    """Harness spans: ``recorder`` saw ``recorded`` points stored, ``reader``
    saw the warm passes' catalog lookups."""
    run.emit("parallel.map_s", map_s, "s")
    run.emit("parallel.supervised_overhead_frac", overhead, "ratio")
    run.emit("catalog.record_s", ratio(recorder.layer_self_s("catalog.record"), recorded), "s")
    run.emit("journal.record_s", ratio(recorder.layer_self_s("journal"), recorded), "s")
    run.emit(
        "catalog.lookup_s",
        ratio(reader.layer_self_s("catalog.lookup"), reader.calls("RunCatalog.lookup")),
        "s",
    )
    run.emit("catalog.hit_ratio", ratio(hits, lookups), "ratio")
    run.notes.extend(span_table(recorder, 1))
    if reader is not recorder:
        run.notes.extend(span_table(reader, 1))


def span_table(tracer: Tracer, replicates: int) -> List[str]:
    n = max(replicates, 1)
    lines = [f"{'layer':<16}{'target':<34}{'calls':>12}{'total_s':>12}{'self_s':>12}"]
    for layer, label, calls, total_s, self_s in tracer.table():
        lines.append(
            f"{layer:<16}{label:<34}{calls / n:>12.1f}{total_s / n:>12.6f}{self_s / n:>12.6f}"
        )
    return lines


# ------------------------------------------------------------ fig4-sweep


def _fresh_dir(run: Run, tag: str) -> Path:
    directory = run.scratch / tag
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir()
    return directory


def _supervised_sweep(directory: Path, seed: int, jobs: int) -> Any:
    """One cold sweep into a fresh catalog and journal in ``directory``."""
    with RunCatalog(directory / "catalog.ndjson") as catalog, RunJournal(
        directory / "journal.ndjson"
    ) as journal:
        return wl.run_sweep(seed, jobs, ResilienceOptions(catalog=catalog, journal=journal))


def _warm_passes(
    run: Run, seed: int, jobs: int, directory: Path, passes: int, digest: str
) -> Tuple[List[float], int, int]:
    """Re-run a catalogued sweep; returns (pass seconds, hits, lookups)."""
    times = []
    with RunCatalog(directory / "catalog.ndjson") as catalog:
        for _ in range(passes):
            options = ResilienceOptions(catalog=catalog)
            elapsed, result = timed(lambda: wl.run_sweep(seed, jobs, options))
            times.append(elapsed)
            if wl.sweep_digest(result) != digest:
                run.fail("a warm sweep differs from its cold sweep")
        return times, catalog.hits, catalog.hits + catalog.misses


def sweep_end_to_end(run: Run) -> None:
    jobs = wl.sweep_jobs()
    first = _supervised_sweep(_fresh_dir(run, "cold"), wl.replicate_seed(run.seed, 0), jobs)
    run.check(0, wl.sweep_digest(first), wl.sweep_predicate(first))  # warm-up, untimed

    sampler = Sampler(run)
    deadline = perf() + run.seconds
    index = 1
    while run.keep_going(len(sampler.times), MIN_REPLICATES, deadline):
        seed = wl.replicate_seed(run.seed, index)
        directory = _fresh_dir(run, "cold")
        result = sampler.replicate(
            lambda: _supervised_sweep(directory, seed, jobs),
            lambda sweep: sum(sweep.grants.values()),
        )
        digest = wl.sweep_digest(result)
        run.check(index, digest, wl.sweep_predicate(result))
        _, hits, lookups = sampler.warm_block(
            lambda: _warm_passes(run, seed, jobs, directory, WARM_EACH, digest),
            lambda warm: warm[0],
        )
        if hits != lookups:
            run.fail(f"warm passes missed the catalog {lookups - hits} times")
        index += 1
    sampler.emit(peak_rss_mb(True))
    run.notes.append(f"fig4-sweep jobs={jobs}")


def sweep_traced(run: Run) -> None:
    jobs = wl.sweep_jobs()
    deadline = perf() + run.seconds / 2
    overheads: List[float] = []
    index = 0
    # Bare vs supervised (catalog + journal) sweeps at the same jobs, in
    # pairs that alternate which side runs first.
    while run.keep_going(len(overheads), MIN_TRACED, deadline):
        seed = wl.replicate_seed(run.seed, index)
        directory = _fresh_dir(run, "pair")
        (bare_s, bare), (cold_s, cold) = timed_pair(
            lambda: wl.run_sweep(seed, jobs),
            lambda: _supervised_sweep(directory, seed, jobs),
            swap=index % 2 == 0,
        )
        digest = wl.sweep_digest(bare)
        extra = [] if wl.sweep_digest(cold) == digest else ["supervised sweep differs from bare"]
        run.check(index, digest, wl.sweep_predicate(bare), extra)
        overheads.append(cold_s / bare_s - 1)
        index += 1

    seed = wl.replicate_seed(run.seed, index)
    directory = _fresh_dir(run, "traced")
    recorder = Tracer(harness_targets())
    with recorder:
        cold = _supervised_sweep(directory, seed, jobs)
    digest = wl.sweep_digest(cold)
    run.check(index, digest, wl.sweep_predicate(cold))
    reader = Tracer(harness_targets())
    with reader:
        _, hits, lookups = _warm_passes(run, seed, jobs, directory, 5, digest)
    emit_harness_layers(
        run,
        recorder.total_s("SweepExecutor.map"),
        recorder,
        len(cold.accepted),
        reader,
        hits,
        lookups,
        overhead=quartiles(overheads)[1],
    )
    sweep_kernel_layers(run, cold, seed, deadline + run.seconds / 2)


def sweep_kernel_layers(run: Run, sweep: Any, seed: int, deadline: float) -> None:
    """Attribute a sweep's kernel time to layers, point by point in-process.

    The sweep's workers run in child processes, out of the tracer's reach,
    so each point is rebuilt here (:func:`perfbench.workloads.
    sweep_point_simulations`) and must reproduce the sweep's result.
    """
    tracer = Tracer(kernel_targets())
    counts: Dict[str, int] = {}
    probe_overheads: List[float] = []
    trace_overheads: List[float] = []
    passes = 0
    while run.keep_going(passes, 2, deadline):
        plain = wl.sweep_point_simulations(seed, lambda: None)
        probed = wl.sweep_point_simulations(seed, CountingProbe)
        traced = wl.sweep_point_simulations(seed, CountingProbe)
        for k, ((rate, plain_sim), (_, probed_sim), (_, traced_sim)) in enumerate(
            zip(plain, probed, traced)
        ):
            horizon = wl.SWEEP_HORIZON
            (plain_s, plain_result), (probed_s, probed_result) = timed_pair(
                lambda: plain_sim.run(horizon),
                lambda: probed_sim.run(horizon),
                swap=(k + passes) % 2 == 0,
            )
            with tracer:
                traced_s, traced_result = timed(lambda: traced_sim.run(horizon))
            for name, total in traced_sim.probe.counters.items():
                counts[name] = counts.get(name, 0) + total
            for label, result in (
                ("plain", plain_result), ("probed", probed_result), ("traced", traced_result)
            ):
                if not wl.sweep_point_matches(sweep, rate, result):
                    run.fail(f"{label} in-process point {rate:g} differs from the sweep")
            probe_overheads.append(probed_s / plain_s - 1)
            trace_overheads.append(traced_s / probed_s - 1)
        passes += 1
    emit_kernel_layers(run, tracer, counts, passes)
    emit_array_and_obs(run, [], [], probe_overheads, trace_overheads)
    run.notes.extend(span_table(tracer, passes))
