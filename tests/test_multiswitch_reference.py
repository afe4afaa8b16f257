"""The composition simulator against the naive two-hop reference.

``tests/reference_multiswitch.py`` advances one cycle at a time; the
event-driven :class:`MultiStageSimulation` must make the same ingress and
egress grants at the same cycles, to the same packet ids, and deliver the
same packets per flow. Cases are drawn by Hypothesis: topologies, link
latencies, buffer depths, and flow sets that mix scheduled and saturating
flows sharing VOQs, optionally under a fault plan.
"""

from typing import Dict, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import QoSConfig
from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    bitline_stuck,
    counter_bitflip,
    crosspoint_dead,
    input_stall,
    packet_drop,
    packet_dup,
)
from repro.multiswitch.simulator import ComposedFlow, MultiStageSimulation
from repro.multiswitch.topology import ClosTopology

from tests.reference_multiswitch import GrantRecorder, ReferenceRefusal, naive_two_hop

QOS = QoSConfig(sig_bits=3, frac_bits=6)


@st.composite
def cases(draw):
    """A topology, buffer depths and a flow set with the contested paths.

    Every case has a host with two saturating flows into one VOQ (two
    destinations in one group) and a host offering more than its channel
    carries to two destination groups, so two of its VOQs back up; random
    extra flows, scheduled or saturating, ride along.
    """
    groups = draw(st.integers(2, 3))
    hosts = draw(st.integers(2, 3))
    topo = ClosTopology(
        groups=groups, hosts_per_group=hosts, link_latency=draw(st.integers(0, 4))
    )
    n = topo.num_hosts
    flits = st.sampled_from([2, 3, 4])
    rate = 0.9 / (n * 2)  # no aggregate can oversubscribe
    # Host 0 saturates two destinations of the last group; host 1 offers
    # 0.8 flits/cycle to each of two groups.
    last = (groups - 1) * hosts
    flows: Dict[Tuple[int, int], ComposedFlow] = {}
    for dst in (last, last + 1):
        flows[(0, dst)] = ComposedFlow(0, dst, rate, draw(flits), None)
    for dst in (0, hosts):
        flows[(1, dst)] = ComposedFlow(1, dst, rate, draw(flits), 0.8)
    for _ in range(draw(st.integers(0, 4))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        inject = draw(st.one_of(st.none(), st.sampled_from([0.05, 0.2, 0.5])))
        flows.setdefault((src, dst), ComposedFlow(src, dst, rate, draw(flits), inject))
    flow_list = list(flows.values())
    order = draw(st.permutations(range(len(flow_list))))
    return dict(
        topology=topo,
        flows=[flow_list[i] for i in order],
        voq_capacity_flits=draw(st.sampled_from([4, 6, 8, 12])),
        downlink_capacity_flits=draw(st.sampled_from([4, 6, 8, 16])),
        seed=draw(st.integers(0, 1_000)),
    )


@st.composite
def fault_plans(draw, topology, flows):
    """A plan of behavioural faults aimed at hosts, groups and aggregates."""
    n, groups = topology.num_hosts, topology.groups
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["stall", "dead", "flip", "drop", "dup"]))
        if kind == "stall":
            specs.append(
                input_stall(draw(st.integers(0, n - 1)), draw(st.integers(0, 300)),
                            draw(st.integers(1, 300)))
            )
        elif kind == "dead":
            specs.append(
                crosspoint_dead(draw(st.integers(0, n - 1)), draw(st.integers(0, groups - 1)))
            )
        elif kind == "flip":
            target = draw(st.sampled_from(flows))  # a registered aggregate
            specs.append(
                counter_bitflip(target.src, topology.group_of(target.dst),
                                draw(st.integers(0, 2)), draw(st.integers(0, 500)))
            )
        else:
            make = packet_drop if kind == "drop" else packet_dup
            specs.append(
                make(draw(st.sampled_from([0.1, 0.5])),
                     output=draw(st.one_of(st.none(), st.integers(0, groups - 1))))
            )
    return FaultPlan(seed=draw(st.integers(0, 50)), faults=tuple(specs))


def assert_matches_reference(case, horizon, fault_plan=None):
    probe = GrantRecorder()
    sim = MultiStageSimulation(qos=QOS, probe=probe, fault_plan=fault_plan, **case)
    result = sim.run(horizon, warmup_cycles=0)
    ref = naive_two_hop(horizon=horizon, qos=QOS, fault_plan=fault_plan, **case)
    assert probe.ingress == ref.ingress
    assert probe.egress == ref.egress
    for flow in case["flows"]:
        stats = result.stats.flow_stats(flow.flow_id)
        assert stats.delivered_packets == ref.delivered[flow.flow_id]
    return ref


REFERENCE_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@REFERENCE_SETTINGS
@given(case=cases())
def test_grants_match_reference(case):
    ref = assert_matches_reference(case, horizon=800)
    # The contested paths were exercised, not merely present.
    assert ref.shared_saturating_voqs >= 1
    assert ref.max_backlogged_voqs >= 2


@REFERENCE_SETTINGS
@given(data=st.data())
def test_faulted_grants_match_reference(data):
    case = data.draw(cases())
    plan = data.draw(fault_plans(case["topology"], case["flows"]))
    assert_matches_reference(case, horizon=600, fault_plan=plan)


def test_circuit_faults_are_refused_by_both():
    case = dict(
        topology=ClosTopology(groups=2, hosts_per_group=2),
        flows=[ComposedFlow(0, 2, 0.3, 4, 0.2)],
    )
    plan = FaultPlan(seed=1, faults=(bitline_stuck(0, 0),))
    with pytest.raises(ReferenceRefusal):
        naive_two_hop(horizon=100, fault_plan=plan, **case)
    with pytest.raises(ConfigError):
        MultiStageSimulation(fault_plan=plan, **case).run(100)
