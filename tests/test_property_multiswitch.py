"""Property tests for the composed-network simulator."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.multiswitch.simulator import ComposedFlow, MultiStageSimulation
from repro.multiswitch.topology import ClosTopology
from tests.reference_multiswitch import GrantRecorder

SIM_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SIM_SETTINGS
@given(
    groups=st.sampled_from([2, 3]),
    hosts=st.sampled_from([2, 4]),
    link_latency=st.integers(0, 6),
    seed=st.integers(0, 100),
    data=st.data(),
)
def test_composition_conservation_and_sanity(groups, hosts, link_latency, seed, data):
    """Random topologies and flows: delivered <= offered, latencies above
    the two-hop physical minimum, throughput within channel limits."""
    topo = ClosTopology(groups=groups, hosts_per_group=hosts, link_latency=link_latency)
    n_flows = data.draw(st.integers(1, min(4, topo.num_hosts)))
    flows = []
    used = set()
    for i in range(n_flows):
        src = data.draw(st.integers(0, topo.num_hosts - 1))
        dst = data.draw(st.integers(0, topo.num_hosts - 1))
        if (src, dst) in used:
            continue
        used.add((src, dst))
        flows.append(
            ComposedFlow(src, dst, rate=0.2 / hosts, packet_flits=4, inject_rate=0.05)
        )
    if not flows:
        return
    probe = GrantRecorder()
    result = MultiStageSimulation(topo, flows, seed=seed, probe=probe).run(
        8_000, warmup_cycles=0
    )
    # Each flow's packet ids arrive in increasing order.
    for ids in probe.deliveries(topo).values():
        assert ids == sorted(ids)
    min_latency = (1 + 4) + link_latency + (1 + 4)
    for flow in flows:
        stats = result.stats.flow_stats(flow.flow_id)
        assert stats.delivered_packets <= stats.offered_packets
        assert stats.delivered_flits <= stats.offered_flits
        if stats.latency.count:
            assert stats.latency.minimum >= min_latency
    # No output can exceed one flit per cycle.
    for dst in {f.dst for f in flows}:
        total = sum(
            result.stats.flow_stats(f.flow_id).delivered_flits
            for f in flows
            if f.dst == dst
        )
        assert total <= 8_000


@SIM_SETTINGS
@given(seed=st.integers(0, 200))
def test_composition_aggregate_guarantee_holds(seed):
    """A lone reserved flow through a congested uplink gets its aggregate."""
    topo = ClosTopology(groups=2, hosts_per_group=4, link_latency=2)
    flows = [
        ComposedFlow(0, 4, rate=0.4, inject_rate=None),  # the guaranteed flow
    ]
    # Other hosts in group 0 fight for the same uplink.
    for local in range(1, 4):
        flows.append(ComposedFlow(local, 4 + local, rate=0.15, inject_rate=None))
    result = MultiStageSimulation(topo, flows, seed=seed).run(20_000)
    assert result.accepted_rate(0, 4) >= 0.4 * 0.93
