"""Differential testing: event-driven kernel vs. the naive per-cycle
reference, grant for grant, on randomized workloads.

This is the strongest evidence for the kernel's "cycle-exact" claim: two
independent implementations of the same semantics must produce identical
grant schedules for identical inputs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.obs import CountingProbe
from repro.qos import LRGArbiter, OutputArbiter, SSVCArbiter, WFQArbiter
from repro.switch.events import GrantEvent
from repro.switch.simulator import Simulation
from repro.traffic.flows import FlowSpec, Workload
from repro.traffic.generators import TraceInjection
from repro.types import FlowId, TrafficClass
from tests.reference_simulator import naive_simulate


def small_config(radix=4):
    return SwitchConfig(
        radix=radix,
        channel_bits=16 * radix,
        gb_buffer_flits=16,
        be_buffer_flits=16,
        qos=QoSConfig(sig_bits=3, frac_bits=5),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )


def _trace_workload(config, arrivals):
    """One trace-driven flow per (flow, flits), added in flow-name order.

    :func:`naive_simulate` admits same-cycle arrivals in flow-name order
    and the kernels in workload order, so the two orders agree.
    """
    per_flow = {}
    for created, flow, flits in arrivals:
        per_flow.setdefault((flow, flits), []).append(created)
    workload = Workload(name="diff-test")
    gb_share = 0.9 / config.radix / 2  # feasible regardless of the draw
    for (flow, flits), times in sorted(per_flow.items(), key=lambda kv: str(kv[0][0])):
        workload.add(
            FlowSpec(
                flow=flow,
                packet_length=flits,
                process=TraceInjection(sorted(times)),
                reserved_rate=(
                    gb_share if flow.traffic_class is TrafficClass.GB else None
                ),
            )
        )
    return workload


def run_kernel(config, arrivals, factory, horizon, probe=None):
    """Run the production kernel on explicit arrivals; return grants."""
    sim = Simulation(config, _trace_workload(config, arrivals),
                     arbiter_factory=factory, warmup_cycles=0,
                     collect_events=True, probe=probe)
    result = sim.run(horizon)
    return [
        (e.cycle, e.output, e.input_port, e.packet_flits)
        for e in result.events
        if isinstance(e, GrantEvent)
    ]


def draw_arrivals(rng, radix, horizon, n_packets, classes=(TrafficClass.BE,)):
    arrivals = []
    for _ in range(n_packets):
        src = int(rng.integers(0, radix))
        dst = int(rng.integers(0, radix))
        cls = classes[int(rng.integers(0, len(classes)))]
        created = int(rng.integers(0, horizon // 2))
        flits = int(rng.integers(1, 9))
        arrivals.append((created, FlowId(src, dst, cls), flits))
    # One flow must not mix packet lengths (Workload constraint): dedupe by
    # forcing a single length per (flow) key.
    seen = {}
    fixed = []
    for created, flow, flits in arrivals:
        flits = seen.setdefault(flow, flits)
        fixed.append((created, flow, flits))
    return fixed


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), radix=st.sampled_from([2, 4]))
def test_lrg_schedules_match(seed, radix):
    rng = np.random.default_rng(seed)
    config = small_config(radix)
    horizon = 600
    arrivals = draw_arrivals(rng, radix, horizon, n_packets=40)
    kernel = run_kernel(config, arrivals,
                        lambda o, c: LRGArbiter(c.radix), horizon)
    reference = naive_simulate(
        config, arrivals, [LRGArbiter(radix) for _ in range(radix)], horizon
    )
    assert kernel == reference


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_ssvc_schedules_match(seed):
    """Same differential check with stateful SSVC arbitration."""
    rng = np.random.default_rng(seed)
    radix, horizon = 4, 600
    config = small_config(radix)
    arrivals = draw_arrivals(rng, radix, horizon, n_packets=30,
                             classes=(TrafficClass.GB,))
    gb_share = 0.9 / radix / 2

    def kernel_factory(o, c):
        return SSVCArbiter(c.radix, qos=c.qos)

    kernel = run_kernel(config, arrivals, kernel_factory, horizon)
    ref_arbiters = []
    flows = {flow for _, flow, _ in arrivals}
    flits_of = {}
    for created, flow, flits in arrivals:
        flits_of.setdefault(flow, flits)
    for o in range(radix):
        arb = SSVCArbiter(radix, qos=config.qos)
        for flow in flows:
            if flow.dst == o:
                arb.register_flow(flow.src, gb_share, flits_of[flow])
        ref_arbiters.append(arb)
    reference = naive_simulate(config, arrivals, ref_arbiters, horizon)
    assert kernel == reference


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_wfq_schedules_match(seed):
    rng = np.random.default_rng(seed)
    radix, horizon = 4, 500
    config = small_config(radix)
    arrivals = draw_arrivals(rng, radix, horizon, n_packets=25)
    kernel = run_kernel(config, arrivals,
                        lambda o, c: WFQArbiter(c.radix), horizon)
    reference = naive_simulate(
        config, arrivals, [WFQArbiter(radix) for _ in range(radix)], horizon
    )
    assert kernel == reference


def test_two_cycle_arbitration_matches():
    """Arbiter-level arbitration_cycles overrides agree too."""
    from repro.qos import FixedPriorityArbiter

    radix, horizon = 4, 400
    config = small_config(radix)
    rng = np.random.default_rng(7)
    arrivals = draw_arrivals(rng, radix, horizon, n_packets=20)
    kernel = run_kernel(config, arrivals,
                        lambda o, c: FixedPriorityArbiter(c.radix), horizon)
    reference = naive_simulate(
        config, arrivals, [FixedPriorityArbiter(radix) for _ in range(radix)],
        horizon,
    )
    assert kernel == reference


class LongestQueueFirstArbiter(OutputArbiter):
    """Grants the input with the most queued flits, lowest port on ties.

    Purely occupancy-sensitive: the decision depends on nothing but
    ``Request.queued_flits``, so any kernel that fills that field wrongly
    (the flit engine used to leave it 0) produces a divergent schedule.
    """

    name = "lqf"

    def choose(self, requests, now):
        return max(requests, key=lambda r: (r.queued_flits, -r.input_port))

    def commit(self, winner, now):
        pass


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), radix=st.sampled_from([2, 4]))
def test_occupancy_sensitive_schedules_match_reference(seed, radix):
    """Fast kernel vs. naive reference under queue-depth arbitration."""
    rng = np.random.default_rng(seed)
    config = small_config(radix)
    horizon = 600
    arrivals = draw_arrivals(rng, radix, horizon, n_packets=40)
    kernel = run_kernel(config, arrivals,
                        lambda o, c: LongestQueueFirstArbiter(c.radix), horizon)
    reference = naive_simulate(
        config, arrivals, [LongestQueueFirstArbiter(radix) for _ in range(radix)],
        horizon,
    )
    assert kernel == reference


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5000))
def test_occupancy_sensitive_schedules_match_flit_kernel(seed):
    """Fast vs. flit kernel under queue-depth arbitration.

    Regression for the flit engine leaving ``queued_flits`` at 0: with an
    arbiter that keys on occupancy, hotspot contention (several inputs with
    different backlogs racing for one output) made the engines disagree on
    winners. Buffers are deep enough that backpressure never binds, the
    regime where the engines are contractually cycle-exact twins.
    """
    from repro.switch.flit_kernel import FlitLevelSimulation
    from repro.traffic.flows import be_flow
    from repro.traffic.generators import BernoulliInjection

    radix, horizon = 4, 2_000
    config = SwitchConfig(
        radix=radix,
        channel_bits=16 * radix,
        gb_buffer_flits=64,
        be_buffer_flits=64,
        qos=QoSConfig(sig_bits=3, frac_bits=5),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )
    rng = np.random.default_rng(seed)
    workload = Workload(name="lqf-diff")
    for src in range(radix):
        # Everyone fights over output 0 (builds unequal backlogs) plus one
        # random background flow per input.
        workload.add(be_flow(src, 0, packet_length=int(rng.integers(2, 6)),
                             process=BernoulliInjection(0.03)))
        workload.add(be_flow(src, int(rng.integers(1, radix)),
                             packet_length=int(rng.integers(1, 5)),
                             process=BernoulliInjection(0.05)))

    def factory(o, c):
        return LongestQueueFirstArbiter(c.radix)

    def grants_of(result):
        return [
            (e.cycle, e.output, e.input_port, e.packet_flits)
            for e in result.events
            if isinstance(e, GrantEvent)
        ]

    fast = Simulation(config, workload, arbiter_factory=factory, seed=seed,
                      warmup_cycles=0, collect_events=True).run(horizon)
    flit = FlitLevelSimulation(config, workload, arbiter_factory=factory,
                               seed=seed, warmup_cycles=0,
                               collect_events=True).run(horizon)
    assert grants_of(fast) == grants_of(flit)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), radix=st.sampled_from([2, 4]))
def test_mixed_class_backlog_schedules_match(seed, radix):
    """BE and GB backlogged at one input: the per-buffer drain and the
    merged arrival stream against a reference that retries every
    backlogged flow every cycle, under the default three-class stack.

    A cycle-0 burst at every input overfills both its BE queue and one of
    its GB VOQs (one 8-flit packet fits an 8-flit buffer, the rest wait),
    so every input holds a BE and a GB backlog at once, and several
    sources arrive in the same cycle.
    """
    horizon = 400
    config = dataclasses.replace(
        small_config(radix), gb_buffer_flits=8, be_buffer_flits=8
    )
    burst = []
    for src in range(radix):
        for _ in range(3):
            burst.append((0, FlowId(src, (src + 1) % radix, TrafficClass.BE), 8))
            burst.append((0, FlowId(src, src, TrafficClass.GB), 8))
    rng = np.random.default_rng(seed)
    drawn = draw_arrivals(rng, radix, horizon, n_packets=15 * radix,
                          classes=(TrafficClass.BE, TrafficClass.GB))
    # One length per flow: a drawn packet of a burst flow takes its length.
    flits_of = {flow: flits for _, flow, flits in burst}
    arrivals = burst + [
        (created, flow, flits_of.setdefault(flow, flits))
        for created, flow, flits in drawn
    ]

    probe = CountingProbe()
    kernel = run_kernel(config, arrivals, None, horizon, probe=probe)
    twin = Simulation(config, _trace_workload(config, arrivals))
    twin._program_switch()
    reference = naive_simulate(config, arrivals, twin.switch.arbiters, horizon)
    assert probe.maxima["kernel.overflow_flows"] >= 2 * radix
    assert kernel == reference


def _gl_policed_config(radix, burst_window):
    """8-flit buffers and a 10% GL reservation with a short burst window."""
    return dataclasses.replace(
        small_config(radix),
        gl_buffer_flits=8,
        be_buffer_flits=8,
        gl_policer=GLPolicerConfig(reserved_rate=0.1, burst_window=burst_window),
    )


def _gl_backlog_arrivals(seed, radix, horizon):
    """A cycle-0 GL and BE burst at every input, then random GL and BE.

    Every input's GL and BE queues overfill at once, so GL heads wait
    behind the policer while BE heads contend for the same outputs.
    """
    burst = []
    for src in range(radix):
        for _ in range(3):
            burst.append((0, FlowId(src, (src + 1) % radix, TrafficClass.GL), 8))
            burst.append((0, FlowId(src, (src + 1) % radix, TrafficClass.BE), 8))
    rng = np.random.default_rng(seed)
    drawn = draw_arrivals(rng, radix, horizon, n_packets=15 * radix,
                          classes=(TrafficClass.GL, TrafficClass.BE))
    flits_of = {flow: flits for _, flow, flits in burst}
    return burst + [
        (created, flow, flits_of.setdefault(flow, flits))
        for created, flow, flits in drawn
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), burst_window=st.integers(1, 39),
       radix=st.sampled_from([2, 4]))
def test_gl_policer_schedules_match(seed, burst_window, radix):
    """Time-dependent GL eligibility, grant for grant.

    A 10% GL reservation charges 10 cycles per GL flit, so a burst window
    under 40 cycles throttles the class after one or two GL grants and
    restores it as time passes. The reference asks the policer at every
    cycle; the kernel arbitrates only at its wakes, so any cycle where
    eligibility alone would change a grant shows up as a divergence.
    """
    horizon = 500
    config = _gl_policed_config(radix, burst_window)
    arrivals = _gl_backlog_arrivals(seed, radix, horizon)
    probe = CountingProbe()
    kernel = run_kernel(config, arrivals, None, horizon, probe=probe)
    twin = Simulation(config, _trace_workload(config, arrivals))
    twin._program_switch()
    reference = naive_simulate(config, arrivals, twin.switch.arbiters, horizon)
    assert probe.value("kernel.gl_throttles") > 0
    assert kernel == reference


def _range_refill_workload(radix):
    """Range-length GB/BE flows offering 1.15 flits/cycle at every input.

    Into buffers that hold one longest packet, every input backlogs into
    its source-side overflow queues, and each drained packet's length was
    drawn from its flow's RNG.
    """
    from repro.traffic.flows import be_flow, gb_flow

    specs = []
    for src in range(radix):
        specs.append(be_flow(src, (src + 1) % radix, packet_length=(2, 8),
                             inject_rate=0.45))
        specs.append(be_flow(src, (src + 2) % radix, packet_length=(2, 8),
                             inject_rate=0.3))
        specs.append(gb_flow(src, src, reserved_rate=0.2, packet_length=(2, 8),
                             inject_rate=0.4))
    workload = Workload(name="range-refill")
    # Same-cycle arrivals are admitted in workload order by the kernels and
    # in flow-name order by the reference; make the two orders agree.
    for spec in sorted(specs, key=lambda spec: str(spec.flow)):
        workload.add(spec)
    return workload


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_range_length_refill_matches_reference_and_array_kernel(seed):
    """Overflow refill with drawn packet lengths, three ways.

    Each kernel retries backlogged packets only at the input a grant just
    freed; the reference retries every backlogged flow every cycle and
    after every grant. With several inputs backlogged at once, all three
    must produce the same grants.
    """
    from repro.switch.array_kernel import ArraySimulation

    radix, horizon = 4, 800
    config = dataclasses.replace(
        small_config(radix), gb_buffer_flits=8, be_buffer_flits=8
    )
    workload = _range_refill_workload(radix)

    def grants_of(result):
        return [
            (e.cycle, e.output, e.input_port, e.packet_flits)
            for e in result.events
            if isinstance(e, GrantEvent)
        ]

    probe = CountingProbe()
    event = Simulation(config, workload, seed=seed, warmup_cycles=0,
                       collect_events=True, probe=probe).run(horizon)
    array = ArraySimulation(config, workload, seed=seed, warmup_cycles=0,
                            collect_events=True).run(horizon)
    # The reference replays the same packets (the kernel's own sources,
    # drained up front) through identically programmed arbiters.
    twin = Simulation(config, workload, seed=seed)
    twin._program_switch()
    arrivals = []
    for source in twin._build_sources(horizon):
        while source.peek_time() is not None:
            packet = source.pop_scheduled()
            arrivals.append((packet.created_cycle, packet.flow, packet.flits))
    reference = naive_simulate(config, arrivals, twin.switch.arbiters, horizon)

    # Each input has three flows, so more than 3 * (radix - 1) backlogged
    # flows at once means every input had a backlog at the same time.
    assert probe.maxima["kernel.overflow_flows"] > 3 * (radix - 1)
    assert len({flits for _, _, _, flits in reference}) > 1
    assert grants_of(event) == reference
    assert grants_of(array) == reference
