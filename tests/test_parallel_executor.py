"""Unit tests for the deterministic sweep executor and its envelopes.

Worker functions live at module level so they pickle into real worker
processes; the suite exercises inline (``jobs=1``) and fanned-out runs,
each inline fallback, and the failure-surfacing contract: a crashed
point is *named*, never hung on.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import ConfigError, SimulationError
from repro.resilience import FailurePolicy, ResilienceOptions
from repro.parallel import (
    PointResult,
    SweepExecutor,
    SweepPoint,
    result_hash,
    spawn_seeds,
)


def _times_ten(point: SweepPoint) -> int:
    return point.index * 10


def _echo_params(point: SweepPoint) -> tuple:
    return (point.seed, point.param("rate"))


def _boom_on_two(point: SweepPoint) -> int:
    if point.index == 2:
        raise ValueError("boom")
    return point.index


def _kill_self(point: SweepPoint) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return 0  # pragma: no cover - unreachable


def _points(n: int) -> list:
    return [SweepPoint.make(i, f"p{i}", seed=100 + i, rate=i / 10) for i in range(n)]


# ---------------------------------------------------------------- envelopes


def test_sweep_point_params_round_trip():
    point = SweepPoint.make(3, "x", seed=7, rate=0.5, arbiter="ssvc")
    assert point.param("rate") == 0.5
    assert point.as_dict() == {"rate": 0.5, "arbiter": "ssvc"}
    with pytest.raises(ConfigError):
        point.param("horizon")


def test_spawn_seeds_is_a_pure_function_of_the_master():
    a = spawn_seeds(42, 8)
    b = spawn_seeds(42, 8)
    assert a == b
    assert len(set(a)) == 8  # distinct streams
    # Extending a sweep never reseeds existing points.
    assert spawn_seeds(42, 12)[:8] == a
    assert spawn_seeds(43, 8) != a
    with pytest.raises(ConfigError):
        spawn_seeds(42, -1)


def test_result_hash_is_order_and_value_sensitive():
    assert result_hash([1.0, 2.0]) == result_hash([1.0, 2.0])
    assert result_hash([1.0, 2.0]) != result_hash([2.0, 1.0])
    assert result_hash([1.0]) != result_hash([1.1])


# ----------------------------------------------------------- dispatch paths


def test_serial_map_preserves_point_order_and_pairing():
    points = _points(5)
    executor = SweepExecutor(jobs=1)
    results = executor.map(_times_ten, points)
    assert executor.last_fallback is None
    assert [r.value for r in results] == [0, 10, 20, 30, 40]
    assert [r.point for r in results] == points
    assert all(isinstance(r, PointResult) for r in results)


def test_parallel_map_matches_serial_exactly():
    points = _points(7)
    serial = SweepExecutor(jobs=1).map(_echo_params, points)
    executor = SweepExecutor(jobs=2)
    parallel = executor.map(_echo_params, points)
    assert executor.last_fallback is None
    assert [r.value for r in parallel] == [r.value for r in serial]
    assert result_hash(r.value for r in parallel) == result_hash(
        r.value for r in serial
    )


def test_duplicate_point_index_is_rejected():
    points = [
        SweepPoint.make(0, "a", seed=1),
        SweepPoint.make(0, "b", seed=2),
    ]
    with pytest.raises(ConfigError, match="duplicate sweep point index 0"):
        SweepExecutor(jobs=1).map(_times_ten, points)


def test_constructor_validates_jobs():
    with pytest.raises(ConfigError):
        SweepExecutor(jobs=0)


# ---------------------------------------------------------------- fallbacks


def test_single_point_falls_back_to_serial():
    executor = SweepExecutor(jobs=4)
    results = executor.map(_times_ten, _points(1))
    assert executor.last_fallback == "fewer than 2 points"
    assert [r.value for r in results] == [0]


def test_last_fallback_is_reset_by_every_run():
    options = ResilienceOptions(on_failure=FailurePolicy.SALVAGE)
    executor = SweepExecutor(jobs=2, resilience=options)
    executor.map(_times_ten, _points(1))
    assert executor.last_fallback == "fewer than 2 points"
    results = executor.map(_times_ten, _points(4))
    assert executor.last_fallback is None
    assert [r.value for r in results] == [0, 10, 20, 30]


def test_unpicklable_fn_falls_back_to_serial_with_same_results():
    executor = SweepExecutor(jobs=4)
    results = executor.map(lambda point: point.index * 10, _points(4))
    assert executor.last_fallback is not None
    assert "not picklable" in executor.last_fallback
    assert [r.value for r in results] == [0, 10, 20, 30]


def test_unpicklable_points_fall_back_to_serial():
    points = [
        SweepPoint.make(i, f"p{i}", seed=i, fn=lambda: None) for i in range(3)
    ]
    executor = SweepExecutor(jobs=2)
    results = executor.map(_times_ten, points)
    assert executor.last_fallback == "sweep points are not picklable"
    assert [r.value for r in results] == [0, 10, 20]


# ---------------------------------------------------------- failure surfacing


def test_serial_crash_names_the_point():
    with pytest.raises(SimulationError, match=r"sweep point 2 \(p2\) failed"):
        SweepExecutor(jobs=1).map(_boom_on_two, _points(4))


def test_worker_crash_names_the_point_and_carries_the_traceback():
    with pytest.raises(SimulationError) as excinfo:
        SweepExecutor(jobs=2).map(_boom_on_two, _points(4))
    message = str(excinfo.value)
    assert "sweep point 2 (p2) failed" in message
    assert "[error]" in message
    assert "ValueError: boom" in message


def test_dead_worker_process_raises_instead_of_hanging():
    with pytest.raises(
        SimulationError, match=r"sweep point \d \(p\d\) failed .*\[worker-died\]"
    ):
        SweepExecutor(jobs=2).map(_kill_self, _points(4))
