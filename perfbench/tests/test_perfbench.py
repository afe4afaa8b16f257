"""The benchmark's own tests: gate, tracing, emitted metrics, failure mode.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure
from perfbench import workloads as wl
from perfbench.layers import KERNEL_LAYERS, harness_targets, kernel_targets
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Never used while the benchmark was developed or pinned.
UNSEEN_SEED = 8_675_309


def _short(name: str, horizon: int = 1_500) -> wl.KernelWorkload:
    return dataclasses.replace(wl.KERNEL_WORKLOADS[name], horizon=horizon)


def _class_attributes(tracer: Tracer) -> list:
    return [t.cls.__dict__.get(t.name, "<inherited>") for t in tracer.targets]


@pytest.mark.parametrize("name", sorted(wl.KERNEL_WORKLOADS))
def test_tracing_leaves_digests_and_classes_unchanged(name: str) -> None:
    workload = _short(name)
    tracer = Tracer(kernel_targets())
    before = _class_attributes(tracer)
    plain = wl.result_digest(workload.run(5).result)
    with tracer:
        traced = wl.result_digest(workload.run(5).result)
    assert traced == plain
    assert _class_attributes(tracer) == before
    assert tracer.calls("Simulation.run") == 1
    assert wl.result_digest(workload.run(5).result) == plain


@pytest.mark.parametrize("name", sorted(wl.KERNEL_WORKLOADS))
def test_layer_self_times_account_for_the_traced_run(name: str) -> None:
    tracer = Tracer(kernel_targets())
    with tracer:
        _short(name).run(5)
    root = tracer.stats["Simulation.run"]
    accounted = root.self_s + sum(tracer.layer_self_s(layer) for layer in KERNEL_LAYERS)
    assert accounted == pytest.approx(root.total_s, rel=1e-9)
    assert all(stats.self_s >= 0 for stats in tracer.stats.values())


def test_nested_calls_are_observed_once_per_layer() -> None:
    tracer = Tracer(kernel_targets())
    with tracer:
        _short("fig4-hotspot").run(5)
    # try_inject calls queue_for: both are spans, only try_inject is a layer entry.
    assert tracer.calls("InputPort.queue_for") > tracer.calls("InputPort.try_inject")
    assert tracer.counters["buffers.inject_calls"] == tracer.calls("InputPort.try_inject")
    # ThreeClassArbiter.select delegates GB to SSVCArbiter.select: one select observed.
    assert tracer.counters["qos.select_calls"] == tracer.calls("ThreeClassArbiter.select")


@pytest.mark.parametrize("name", sorted(wl.KERNEL_WORKLOADS))
def test_unseen_seed_passes_the_gate(name: str) -> None:
    workload = wl.KERNEL_WORKLOADS[name]
    pinned = wl.load_pinned()
    for index in range(2):
        seed = wl.replicate_seed(UNSEEN_SEED, index)
        replicate = workload.run(seed)
        digest = wl.result_digest(replicate.result)
        violations = workload.predicate(replicate)
        assert wl.gate(name, UNSEEN_SEED, index, digest, violations, pinned) == []
        if workload.array_twin:
            assert wl.result_digest(workload.run(seed, kernel="array").result) == digest


def test_unseen_seed_passes_the_sweep_gate() -> None:
    sweep = wl.run_sweep(wl.replicate_seed(UNSEEN_SEED, 0), jobs=1)
    assert wl.sweep_predicate(sweep) == []


@pytest.mark.parametrize("name", sorted(wl.KERNEL_WORKLOADS))
def test_default_seed_matches_pinned_digests(name: str) -> None:
    expected = wl.load_pinned()[name]
    replicate = wl.KERNEL_WORKLOADS[name].run(wl.replicate_seed(wl.DEFAULT_SEED, 1))
    assert wl.result_digest(replicate.result) == expected[1]


def test_pinned_digest_mismatch_fails_the_gate() -> None:
    pinned = {"fig4-hotspot": ["0" * 16]}
    errors = wl.gate("fig4-hotspot", wl.DEFAULT_SEED, 0, "f" * 16, [], pinned)
    assert errors and "pinned" in errors[0]
    assert wl.gate("fig4-hotspot", UNSEEN_SEED, 0, "f" * 16, [], pinned) == []


def test_predicates_have_teeth() -> None:
    overloaded = dataclasses.replace(
        wl.KERNEL_WORKLOADS["voq-islip"],
        traffic=lambda: wl.uniform_be_workload(8, 1.3),
        horizon=3_000,
    )
    assert overloaded.predicate(overloaded.run(3))


def test_calibration_loop_does_not_import_the_simulator() -> None:
    tree = ast.parse((ROOT / "perfbench" / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.startswith(("repro", "perfbench")) for name in imported)


def _quick(monkeypatch: pytest.MonkeyPatch) -> None:
    """Shrink every loop so a full end-to-end or traced run takes seconds.

    Replicates keep their real horizons: the paper predicates are checked
    at those horizons, and some do not hold on much shorter runs.
    """
    monkeypatch.setattr(measure, "MIN_REPLICATES", 2)
    monkeypatch.setattr(measure, "MIN_TRACED", 1)
    monkeypatch.setattr(measure, "SETUP_PROBES", 1)
    monkeypatch.setattr(measure, "WARM_EACH", 1)
    monkeypatch.setattr(measure, "WARM_POINTS", 1)


def _expected(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(
    workload: str, trace: int, monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    _quick(monkeypatch)
    run = measure.Run(workload, UNSEEN_SEED, 0.0, tmp_path)
    kernel = workload in wl.KERNEL_WORKLOADS
    if trace:
        (measure.kernel_traced if kernel else measure.sweep_traced)(run)
        run.emit("failed_frac", measure.ratio(run.gate.failed, run.gate.attempted), "ratio")
    else:
        (measure.kernel_end_to_end if kernel else measure.sweep_end_to_end)(run)
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in run.metrics.items()} == expected
    assert run.correct, run.gate.errors + run.problems
    assert run.gate.attempted >= 1
    if not trace:
        assert all(m["value"] > 0 for m in run.metrics.values())


def test_workload_names_match_the_benchmark_spec() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOAD_NAMES)
    from perfbench.run import WORKLOADS

    assert WORKLOADS == wl.WORKLOAD_NAMES


def test_harness_targets_are_distinct_from_kernel_targets() -> None:
    kernel = {t.label for t in kernel_targets()}
    harness = {t.label for t in harness_targets()}
    assert kernel.isdisjoint(harness)
    assert len(kernel) == len(kernel_targets())


def test_checkout_without_the_simulator_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-hotspot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
