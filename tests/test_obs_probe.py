"""Observability subsystem: probes, NDJSON traces, run reports, and the
kernel counter contracts they expose."""

import io
import json

import pytest

from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.faults import (
    FaultPlan,
    counter_bitflip,
    crosspoint_dead,
    input_stall,
    packet_drop,
    packet_dup,
)
from repro.obs import CountingProbe, NDJSONTraceProbe, Probe, RunReport
from repro.switch.simulator import Simulation
from repro.traffic.flows import Workload, be_flow, gb_flow, gl_flow
from repro.traffic.generators import TraceInjection
from repro.types import FlowId, TrafficClass


def config(radix=4, **over):
    base = dict(
        radix=radix,
        channel_bits=16 * radix,
        gb_buffer_flits=16,
        be_buffer_flits=16,
        qos=QoSConfig(sig_bits=3, frac_bits=5),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )
    base.update(over)
    return SwitchConfig(**base)


class TestCountingProbe:
    def test_counters_and_maxima(self):
        probe = CountingProbe()
        probe.count("a")
        probe.count("a", 4)
        probe.gauge("depth", 3)
        probe.gauge("depth", 9)
        probe.gauge("depth", 5)
        assert probe.value("a") == 5
        assert probe.counters == {"a": 5}
        assert probe.maxima == {"depth": 9}
        assert probe.value("missing") == 0

    def test_base_probe_is_inert(self):
        probe = Probe()
        probe.count("x")
        probe.gauge("y", 1)
        probe.event("z", 0, detail=1)
        with probe.timer("t"):
            pass
        assert probe.trace is False

    def test_timer_accumulates(self):
        probe = CountingProbe()
        with probe.timer("section"):
            pass
        with probe.timer("section"):
            pass
        assert probe.timings["section"] >= 0.0
        assert len(probe.timings) == 1


class TestKernelCounters:
    def run_with_probe(self, horizon=500):
        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0, 10, 20]))
        )
        probe = CountingProbe()
        result = Simulation(config(), workload, seed=1, probe=probe,
                            warmup_cycles=0).run(horizon)
        return result, probe

    def test_grants_counter_matches_result(self):
        result, probe = self.run_with_probe()
        assert probe.value("kernel.grants") == result.grants == 3
        assert probe.value("kernel.arrivals") == 3
        assert probe.value("kernel.wakes") > 0
        assert probe.value("kernel.arbitrations") >= 3

    def test_no_probe_means_no_counters(self):
        """The disabled path must not require a probe object at all."""
        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0]))
        )
        result = Simulation(config(), workload, seed=1,
                            warmup_cycles=0).run(100)
        assert result.grants == 1

    def test_overflow_scans_proportional_to_backlog(self):
        """Regression: drained flows used to stay in the overflow dict as
        empty deques, so every later wake re-scanned them forever. With
        pruning, scan work stops once the backlog clears, even though
        other traffic keeps the kernel waking for thousands of cycles."""
        workload = Workload(name="overflow-scan")
        # Six 8-flit packets at cycle 0 into a 16-flit buffer: 2 fit, 4
        # wait in the source queue and drain within ~200 cycles.
        workload.add(
            be_flow(0, 0, packet_length=8, process=TraceInjection([0] * 6))
        )
        # Unrelated long-lived traffic keeps producing wakes and grants
        # long after the backlog cleared.
        workload.add(
            be_flow(1, 1, packet_length=2,
                    process=TraceInjection(list(range(0, 4000, 4))))
        )
        probe = CountingProbe()
        result = Simulation(config(), workload, seed=1, probe=probe,
                            warmup_cycles=0).run(4_000)
        assert result.grants > 900  # the background flow really ran
        scanned = probe.value("kernel.overflow_flows_scanned")
        assert 0 < scanned < 100, scanned
        assert probe.maxima["kernel.overflow_flows"] == 1

    def test_grant_drains_only_its_own_input(self):
        """Buffer space frees only where a packet was granted, so a grant
        at input 1 retries input 1's backlog and none of input 0's. Input
        0 is stalled all run: its backlogged flow is never granted, so no
        scan may ever visit it."""
        horizon = 2_000
        workload = Workload(name="per-input-drain")
        # 8-flit packets into 16-flit buffers: two fit, the rest wait.
        workload.add(
            be_flow(0, 0, packet_length=8, process=TraceInjection([0] * 4))
        )
        workload.add(
            be_flow(1, 1, packet_length=8, process=TraceInjection([0] * 6))
        )
        plan = FaultPlan(seed=0, faults=(input_stall(0, start=0, duration=horizon),))
        probe = CountingProbe()
        result = Simulation(config(), workload, seed=1, probe=probe,
                            warmup_cycles=0, fault_plan=plan).run(horizon)
        assert result.grants == 6  # input 1's packets only
        assert probe.maxima["kernel.overflow_flows"] == 2  # both backlogged
        # Input 1's first four grants each retry its one backlogged flow
        # and admit one packet; the fourth empties it.
        assert probe.value("kernel.overflow_flows_scanned") == 4

    def test_grant_drains_only_the_buffer_it_freed(self):
        """A grant frees space in one buffer only, so it retries only that
        buffer's backlog. Input 0 backlogs a BE flow and a GB flow; its BE
        crosspoint is dead, so every grant there is a GB grant, and none
        may visit the BE flow waiting for the BE queue."""
        horizon = 2_000
        workload = Workload(name="per-buffer-drain")
        # 8-flit packets into 16-flit buffers: two fit, two wait, per flow.
        workload.add(
            be_flow(0, 1, packet_length=8, process=TraceInjection([0] * 4))
        )
        workload.add(
            gb_flow(0, 2, reserved_rate=0.3, packet_length=8,
                    process=TraceInjection([0] * 4))
        )
        plan = FaultPlan(seed=0, faults=(crosspoint_dead(0, 1),))
        probe = CountingProbe()
        result = Simulation(config(), workload, seed=1, probe=probe,
                            warmup_cycles=0, fault_plan=plan).run(horizon)
        assert result.grants == 4  # the GB flow's packets only
        assert probe.maxima["kernel.overflow_flows"] == 2  # both backlogged
        # The first two GB grants each retry the GB flow and admit one
        # packet; the second empties its backlog. The BE flow is never
        # visited, although it waits at the granted input all run.
        assert probe.value("kernel.overflow_flows_scanned") == 2

    def test_matching_path_keeps_the_overflow_counters(self):
        """Under a switch-wide matching scheduler the kernel builds a
        per-wake request map; the source-side overflow store must survive
        it. 8-flit packets into a 32-flit VOQ: four fit at cycle 0 and
        one is granted; of three more at cycle 1 one fits and two wait,
        and the run's overflow gauges and scan counter are reported."""
        from repro.experiments.common import make_arbiter_factory, voq_config

        workload = Workload(name="voq-overflow")
        workload.add(
            be_flow(0, 1, packet_length=8,
                    process=TraceInjection([0] * 4 + [1] * 3))
        )
        probe = CountingProbe()
        result = Simulation(voq_config(radix=4), workload,
                            arbiter_factory=make_arbiter_factory("islip"),
                            seed=1, probe=probe, warmup_cycles=0).run(500)
        assert result.grants == 7
        assert probe.maxima["kernel.overflow_flows"] == 1
        assert probe.maxima["kernel.overflow_queue_depth"] == 2
        # The next two grants each free room for one waiting packet.
        assert probe.value("kernel.overflow_flows_scanned") == 2

    def test_scheduled_arrivals_push_no_wake_heap_entries(self):
        """Arrivals come from one presorted stream, not the wake heap: on
        a trace-only workload every heap push is a delivery wake."""
        workload = Workload(name="stream-arrivals")
        workload.add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0, 10, 20]))
        )
        workload.add(
            be_flow(2, 3, packet_length=2, process=TraceInjection([3, 10, 31]))
        )
        probe = CountingProbe()
        result = Simulation(config(), workload, seed=1, probe=probe,
                            warmup_cycles=0).run(500)
        assert result.grants == 6
        assert probe.value("kernel.arrivals") == 6
        # Six deliveries at distinct cycles (5, 15, 25; 6, 13, 34), no
        # declines and no faults: six pushes, none for an arrival.
        assert probe.value("kernel.heap_pushes") == 6

    def test_outputs_without_buffered_packets_are_never_arbitrated(self):
        """The per-output demand index skips outputs no input holds a
        packet for: their arbiters are never consulted, and the zero-rate
        GL policer notes throttles only where a GL head is waiting."""
        times = list(range(0, 400, 8))
        workload = Workload(name="demand-index")
        workload.add(gl_flow(0, 1, packet_length=2, process=TraceInjection(times)))
        workload.add(be_flow(2, 3, packet_length=4, process=TraceInjection(times)))
        sim = Simulation(config(), workload, seed=1, warmup_cycles=0)
        arbitrated = []
        for o, arbiter in enumerate(sim.switch.arbiters):
            def recording(requests, now, o=o, select=arbiter.select):
                arbitrated.append(o)
                return select(requests, now)

            arbiter.select = recording
        result = sim.run(500)
        assert result.grants == 2 * len(times)
        assert set(arbitrated) == {1, 3}
        assert result.gl_throttle_events[1] > 0
        assert [result.gl_throttle_events[o] for o in (0, 2, 3)] == [0, 0, 0]


class TestNDJSONTrace:
    def test_trace_written_and_parseable(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0, 10]))
        )
        with NDJSONTraceProbe(path) as probe:
            Simulation(config(), workload, seed=1, probe=probe,
                       warmup_cycles=0).run(200)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        grants = [rec for rec in lines if rec["kind"] == "grant"]
        assert len(grants) == 2
        assert grants[0]["cycle"] == 0
        assert grants[0]["output"] == 1
        assert grants[0]["flits"] == 4
        assert probe.events_written == len(lines)

    def test_trace_probe_also_counts(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0]))
        )
        with NDJSONTraceProbe(path) as probe:
            Simulation(config(), workload, seed=1, probe=probe,
                       warmup_cycles=0).run(100)
        assert probe.value("kernel.grants") == 1


class TestRunReport:
    def make_report(self):
        workload = Workload(name="report-wl")
        workload.add(gb_flow(0, 0, reserved_rate=0.3, packet_length=4,
                             process=TraceInjection([0, 10, 20])))
        probe = CountingProbe()
        result = Simulation(config(), workload, seed=1, probe=probe,
                            warmup_cycles=0).run(400)
        return RunReport.from_result(result, probe=probe)

    def test_round_trip_through_json(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.save(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["kernel"] == "event"
        assert doc["workload"] == "report-wl"
        assert doc["grants"] == 3
        assert doc["counters"]["kernel.grants"] == 3
        assert set(doc["gl_throttle_events"]) == {"0", "1", "2", "3"}
        assert len(doc["flows"]) == 1
        flow = doc["flows"][0]
        assert flow["class"] == "GB"
        assert flow["latency"]["count"] == 3

    def test_report_without_probe(self):
        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0]))
        )
        result = Simulation(config(), workload, seed=1,
                            warmup_cycles=0).run(100)
        doc = RunReport.from_result(result).to_dict()
        assert doc["counters"] == {}
        assert doc["grants"] == 1


class TestFlitKernelProbe:
    def test_flit_kernel_emits_the_same_counter_names(self):
        from repro.switch.flit_kernel import FlitLevelSimulation

        workload = Workload().add(
            be_flow(0, 1, packet_length=4, process=TraceInjection([0, 20]))
        )
        probe = CountingProbe()
        result = FlitLevelSimulation(config(), workload, seed=1, probe=probe,
                                     warmup_cycles=0).run(200)
        assert probe.value("kernel.grants") == result.grants == 2
        assert probe.value("kernel.wakes") == 200  # per-cycle engine
        assert result.kernel == "flit"


class TestMultiswitchProbe:
    def test_multiswitch_counters(self):
        from repro.multiswitch.simulator import ComposedFlow, MultiStageSimulation
        from repro.multiswitch.topology import ClosTopology

        topo = ClosTopology(groups=2, hosts_per_group=2)
        flows = [ComposedFlow(src=s, dst=(s + 2) % 4, rate=0.3,
                              inject_rate=0.2) for s in range(4)]
        probe = CountingProbe()
        result = MultiStageSimulation(topo, flows, seed=1, probe=probe).run(2_000)
        assert probe.value("multiswitch.ingress_grants") == result.grants_ingress
        assert probe.value("multiswitch.egress_grants") == result.grants_egress
        assert probe.value("multiswitch.wakes") > 0


class TestFaultTraceEvents:
    """Every kernel traces drop, dup and bit-flip faults as ``fault`` events.

    The fault kind travels as ``fault_kind``: a ``kind`` field would
    collide with ``Probe.event(kind, cycle, **fields)`` and raise.
    """

    PLANS = {
        "packet-drop": ("faults.packet_drops", packet_drop(0.5)),
        "packet-dup": ("faults.packet_dups", packet_dup(0.5)),
        "counter-bitflip": ("faults.counter_bitflips", counter_bitflip(1, 0, 3, 100)),
    }

    @staticmethod
    def _fault_records(stream):
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        return [r for r in records if r["kind"] == "fault"]

    @pytest.mark.parametrize("fault", sorted(PLANS))
    @pytest.mark.parametrize("kernel", ["event", "array", "flit"])
    def test_single_switch_kernels(self, kernel, fault):
        from repro.config import FIG4_CONFIG
        from repro.experiments.common import make_simulation
        from repro.traffic.patterns import fig4_workload

        counter, spec = self.PLANS[fault]
        stream = io.StringIO()
        probe = NDJSONTraceProbe(stream)
        make_simulation(
            kernel,
            FIG4_CONFIG,
            fig4_workload(inject_rate=0.2),
            seed=1,
            probe=probe,
            fault_plan=FaultPlan(seed=2, faults=(spec,)),
        ).run(1_000)
        records = self._fault_records(stream)
        assert records and {r["fault_kind"] for r in records} == {fault}
        assert len(records) == probe.value(counter)

    @pytest.mark.parametrize("fault", sorted(PLANS))
    def test_composition(self, fault):
        from repro.multiswitch.simulator import ComposedFlow, MultiStageSimulation
        from repro.multiswitch.topology import ClosTopology

        counter, spec = self.PLANS[fault]
        if fault == "counter-bitflip":
            # Host 1's flow leaves through uplink 1, the aggregate it flips.
            spec = counter_bitflip(1, 1, 3, 100)
        topo = ClosTopology(groups=2, hosts_per_group=2)
        flows = [ComposedFlow(src=s, dst=(s + 2) % 4, rate=0.3, inject_rate=None)
                 for s in range(4)]
        stream = io.StringIO()
        probe = NDJSONTraceProbe(stream)
        MultiStageSimulation(
            topo, flows, seed=1, probe=probe,
            fault_plan=FaultPlan(seed=2, faults=(spec,)),
        ).run(1_000)
        records = self._fault_records(stream)
        assert records and {r["fault_kind"] for r in records} == {fault}
        assert len(records) == probe.value(counter)
