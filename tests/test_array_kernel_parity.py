"""Bit-identical parity: the array kernel vs. the event-kernel oracle.

The array kernel's whole claim (docs/KERNELS.md) is that batching one
cycle's arbitration into numpy row operations changes *nothing* observable:
same grants, same event stream (to the repr), same probe counters, same
QoS metrics — under uniform load, the Fig. 4 hotspot, GL policing, an
active fault plan, range-length saturating sources, and at radix 128;
and on the counter paths: the HALVE and RESET saturation branches, and
counter bit-flips under all three counter modes.
These tests pin that contract, plus its boundaries (the configurations
the kernel refuses at construction) and its interaction with the sweep
executor at ``--jobs 1/2/4``.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import pytest

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.errors import ConfigError
from repro.experiments.common import make_simulation, run_simulation
from repro.faults import (
    FaultPlan,
    crosspoint_dead,
    input_stall,
    packet_drop,
    packet_dup,
)
from repro.obs.probe import CountingProbe
from repro.parallel import SweepExecutor
from repro.switch.array_kernel import ArraySimulation
from repro.switch.simulator import Simulation
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.patterns import fig4_workload, uniform_random_workload
from repro.types import CounterMode

from tests.test_saturating_hashes import BITFLIP_PLAN

HORIZON = 4_000


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


def _counter_scenario(name: str):
    """Uniform 0.7 or the Fig. 4 hotspot on the counter paths.

    ``name`` is ``<uniform|hotspot>[-halve|-reset][-flips]``: the counter
    mode (SUBTRACT when absent) and whether ``BITFLIP_PLAN`` is active.
    """
    parts = name.split("-")
    flips = parts[-1] == "flips"
    mode = parts[1] if len(parts) > 1 and parts[1] != "flips" else "subtract"
    config = _paper_config(
        qos=QoSConfig(sig_bits=4, frac_bits=8, counter_mode=CounterMode[mode.upper()])
    )
    if parts[0] == "uniform":
        workload = uniform_random_workload(8, inject_rate=0.7, reserved_share=0.9)
    else:
        workload = fig4_workload(inject_rate=None)
    return config, workload, BITFLIP_PLAN if flips else None


def _scenario(name: str, horizon: int = HORIZON):
    """(config, workload, fault_plan) for one pinned parity scenario."""
    if name in COUNTER_SCENARIOS:
        return _counter_scenario(name)
    if name == "uniform":
        return (
            _paper_config(),
            uniform_random_workload(8, inject_rate=0.7, reserved_share=0.9),
            None,
        )
    if name == "hotspot":
        return _paper_config(), fig4_workload(inject_rate=None), None
    if name == "gl-policed":
        config = _paper_config(
            radix=4,
            channel_bits=64,
            gl_policer=GLPolicerConfig(reserved_rate=0.05, burst_window=64),
        )
        workload = Workload(name="gl-policed")
        workload.add(gl_flow(0, 0, packet_length=4, inject_rate=None))
        workload.add(gb_flow(1, 0, reserved_rate=0.5, inject_rate=None))
        workload.add(be_flow(2, 0, inject_rate=0.2))
        return config, workload, None
    if name == "faulted":
        plan = FaultPlan(
            seed=1,
            faults=(
                input_stall(1, start=horizon // 4, duration=horizon // 8),
                crosspoint_dead(2, 0),
                packet_drop(0.05, output=0),
                packet_dup(0.02, output=0),
            ),
        )
        return _paper_config(), fig4_workload(inject_rate=None), plan
    if name == "range-topup":
        # Saturating sources that draw packet lengths take the top-up's
        # build-and-roll-back path instead of the arithmetic precheck.
        workload = Workload(name="range-topup")
        for src in range(4):
            workload.add(
                gb_flow(src, 0, reserved_rate=0.2, packet_length=(2, 8))
            )
        workload.add(be_flow(1, 2, packet_length=(2, 8)))
        workload.add(be_flow(2, 2, packet_length=(2, 8), inject_rate=0.3))
        return _paper_config(radix=4, channel_bits=64), workload, None
    if name == "r128":
        workload = Workload(name="hotspot-r128")
        for src in range(128):
            workload.add(gb_flow(src, src % 8, reserved_rate=0.05, inject_rate=None))
        return _paper_config(radix=128), workload, None
    raise AssertionError(name)


COUNTER_SCENARIOS = tuple(
    f"{base}{mode}{flips}"
    for base in ("uniform", "hotspot")
    for flips in ("", "-flips")
    for mode in ("", "-halve", "-reset")
    if mode or flips
)
SCENARIOS = (
    "uniform", "hotspot", "gl-policed", "faulted", "range-topup", "r128",
) + COUNTER_SCENARIOS


def _run(sim_cls, name: str, horizon: int):
    config, workload, plan = _scenario(name, horizon)
    probe = CountingProbe()
    result = sim_cls(
        config, workload, seed=1, probe=probe, fault_plan=plan,
        collect_events=True,
    ).run(horizon)
    return result, probe


@pytest.fixture(scope="module", params=SCENARIOS)
def pair(request):
    """(scenario, event result+probe, array result+probe), run once each."""
    horizon = 600 if request.param == "r128" else HORIZON
    return (
        request.param,
        _run(Simulation, request.param, horizon),
        _run(ArraySimulation, request.param, horizon),
    )


class TestBitIdenticalParity:
    def test_grants_and_kernel_tag(self, pair):
        _, (event, _), (array, _) = pair
        assert array.grants == event.grants > 0
        assert event.kernel == "event"
        assert array.kernel == "array"
        assert array.chained_grants == 0

    def test_event_streams_match_to_the_repr(self, pair):
        _, (event, _), (array, _) = pair
        assert len(array.events) == len(event.events)
        for ours, oracle in zip(array.events, event.events):
            assert repr(ours) == repr(oracle)

    def test_probe_counters_match(self, pair):
        _, (_, event_probe), (_, array_probe) = pair
        assert array_probe.counters == event_probe.counters

    def test_qos_metrics_match(self, pair):
        _, (event, _), (array, _) = pair
        assert array.gl_throttle_events == event.gl_throttle_events
        assert array.output_utilization == event.output_utilization
        for flow in event.stats.flows:
            ours = array.stats.flow_stats(flow)
            oracle = event.stats.flow_stats(flow)
            for attr in (
                "offered_packets", "offered_flits",
                "delivered_packets", "delivered_flits",
            ):
                assert getattr(ours, attr) == getattr(oracle, attr), (flow, attr)


def _counter_run(sim_cls, name: str):
    """(event reprs, (halve events, reset events)) of one counter scenario."""
    config, workload, plan = _scenario(name)
    sim = sim_cls(config, workload, seed=1, fault_plan=plan, collect_events=True)
    result = sim.run(HORIZON)
    cores = [arbiter.gb_arbiter.core for arbiter in sim.switch.arbiters]
    saturations = (
        sum(core.halve_events for core in cores),
        sum(core.reset_events for core in cores),
    )
    return [repr(event) for event in result.events], saturations


class TestCounterPaths:
    """The counter scenarios reach the code they are there to cover."""

    @pytest.mark.parametrize(
        "name",
        ["uniform-halve", "uniform-reset", "hotspot-halve-flips", "hotspot-reset-flips"],
    )
    def test_saturation_branch_fires_alike_in_both_kernels(self, name):
        _, event = _counter_run(Simulation, name)
        _, array = _counter_run(ArraySimulation, name)
        assert array == event
        halves, resets = event
        assert (halves > 0, resets > 0) == ("halve" in name, "reset" in name)

    @pytest.mark.parametrize("name", ["uniform", "hotspot"])
    @pytest.mark.parametrize("mode", ["", "-halve", "-reset"])
    def test_bitflips_change_the_event_stream(self, name, mode):
        plain, _ = _counter_run(Simulation, name + mode)
        flipped, _ = _counter_run(Simulation, name + mode + "-flips")
        assert flipped != plain


class TestConstructionBoundaries:
    def test_packet_chaining_is_refused(self):
        config = _paper_config(packet_chaining=True)
        workload = fig4_workload(inject_rate=None)
        with pytest.raises(ConfigError, match="packet chaining"):
            ArraySimulation(config, workload, seed=1)

    def test_non_three_class_arbiter_is_refused(self):
        from repro.experiments.presets import ARBITER_PRESETS

        config, workload, _ = _scenario("hotspot")
        with pytest.raises(ConfigError, match="output 0.*'lrg'"):
            ArraySimulation(
                config, workload, arbiter_factory=ARBITER_PRESETS["lrg"], seed=1
            )

    def test_unknown_kernel_name_is_refused(self):
        config, workload, _ = _scenario("hotspot")
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_simulation("bogus", config, workload)

    def test_make_simulation_builds_the_array_backend(self):
        config, workload, _ = _scenario("hotspot")
        sim = make_simulation("array", config, workload, seed=1)
        assert isinstance(sim, ArraySimulation)


# ------------------------------------------------- sweep-executor invariance

def _grant_hash(point):
    """Event-stream hash of one sweep point (module-level: must pickle)."""
    params = dict(point.params)
    kernel = params["kernel"]
    rate = params["rate"]
    faulted = params["faulted"]
    horizon = 1_500
    plan = None
    if faulted:
        plan = FaultPlan(
            seed=1,
            faults=(
                input_stall(1, start=horizon // 4, duration=horizon // 8),
                crosspoint_dead(2, 0),
                packet_drop(0.05, output=0),
                packet_dup(0.02, output=0),
            ),
        )
    result = run_simulation(
        _paper_config(),
        fig4_workload(inject_rate=rate),
        horizon=horizon,
        seed=point.seed,
        collect_events=True,
        fault_plan=plan,
        kernel=kernel,
    )
    payload = "\n".join(repr(event) for event in result.events)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_SWEEP_POINTS = [(0.15, False), (0.3, False), (0.3, True), (None, True)]


def _points(kernel):
    from repro.parallel import SweepPoint

    return [
        SweepPoint.make(
            index=i,
            label=f"{kernel}-{rate}-{'faulted' if faulted else 'clean'}",
            seed=3,
            kernel=kernel,
            rate=rate,
            faulted=faulted,
        )
        for i, (rate, faulted) in enumerate(_SWEEP_POINTS)
    ]


def _hashes(kernel, jobs):
    results = SweepExecutor(jobs=jobs).map(_grant_hash, _points(kernel))
    return [result.value for result in results]


@pytest.mark.parametrize("kernel", ["event", "array"])
def test_grant_hashes_are_job_count_invariant(kernel):
    serial = _hashes(kernel, jobs=1)
    for jobs in (2, 4):
        assert _hashes(kernel, jobs=jobs) == serial


def test_array_grant_hashes_equal_event_hashes_across_jobs():
    assert _hashes("array", jobs=4) == _hashes("event", jobs=2)
