"""Tests for repro.types and the kernel value types: class ordering, mode
parsing, flow identity, and the Request/Packet contracts."""

import json
import pickle
from dataclasses import dataclass

import pytest

from repro.core.arbitration import Request
from repro.errors import SimulationError
from repro.switch.flit import Packet
from repro.types import CounterMode, FlowId, TrafficClass


class TestTrafficClass:
    def test_priority_ordering_gl_highest(self):
        assert TrafficClass.GL > TrafficClass.GB > TrafficClass.BE

    def test_numeric_values_match_paper_priorities(self):
        assert TrafficClass.BE == 0
        assert TrafficClass.GB == 1
        assert TrafficClass.GL == 2

    def test_short_names(self):
        assert TrafficClass.BE.short_name == "BE"
        assert TrafficClass.GB.short_name == "GB"
        assert TrafficClass.GL.short_name == "GL"

    def test_max_of_classes_is_highest_priority(self):
        assert max([TrafficClass.BE, TrafficClass.GL, TrafficClass.GB]) is TrafficClass.GL


class TestCounterMode:
    @pytest.mark.parametrize("name,expected", [
        ("subtract", CounterMode.SUBTRACT),
        ("halve", CounterMode.HALVE),
        ("reset", CounterMode.RESET),
        ("SUBTRACT", CounterMode.SUBTRACT),
        ("Halve", CounterMode.HALVE),
    ])
    def test_from_name_parses(self, name, expected):
        assert CounterMode.from_name(name) is expected

    def test_from_name_rejects_unknown_with_valid_list(self):
        with pytest.raises(ValueError, match="subtract"):
            CounterMode.from_name("bogus")

    def test_three_modes_exist(self):
        assert {m.value for m in CounterMode} == {"subtract", "halve", "reset"}


class TestFlowId:
    def test_defaults_to_gb(self):
        assert FlowId(0, 1).traffic_class is TrafficClass.GB

    def test_str_is_readable(self):
        assert str(FlowId(2, 5, TrafficClass.GL)) == "GL[2->5]"

    def test_rejects_negative_src(self):
        with pytest.raises(ValueError):
            FlowId(-1, 0)

    def test_rejects_negative_dst(self):
        with pytest.raises(ValueError):
            FlowId(0, -2)

    def test_hashable_and_equal_by_value(self):
        assert FlowId(1, 2) == FlowId(1, 2)
        assert len({FlowId(1, 2), FlowId(1, 2), FlowId(1, 3)}) == 2

    def test_distinct_classes_are_distinct_flows(self):
        assert FlowId(1, 2, TrafficClass.GB) != FlowId(1, 2, TrafficClass.GL)


# ------------------------------------------------------------------ value types
#
# FlowId and Request are tuples of their fields, so the kernels hash and
# compare them in C. Their hash, repr and validation must stay what they
# were as frozen dataclasses: every dict and set keyed by them keeps its
# order, and every pinned event-stream hash (built from reprs) holds.


@dataclass(frozen=True)
class _DataclassFlowId:
    """The frozen-dataclass FlowId this tuple type replaced, for reference."""

    src: int
    dst: int
    traffic_class: TrafficClass = TrafficClass.GB


@dataclass(frozen=True)
class _DataclassRequest:
    """The frozen-dataclass Request this tuple type replaced, for reference."""

    input_port: int
    traffic_class: TrafficClass
    packet_flits: int
    queued_flits: int = 0
    arrival_cycle: int = 0


FLOWS = [FlowId(0, 0), FlowId(3, 5, TrafficClass.GL), FlowId(7, 1, TrafficClass.BE)]
REQUESTS = [
    Request(0, TrafficClass.GB, 8),
    Request(input_port=4, traffic_class=TrafficClass.GL, packet_flits=1, queued_flits=9),
    Request(2, TrafficClass.BE, 3, 12, arrival_cycle=40),
]


def _reference(value):
    if isinstance(value, FlowId):
        return _DataclassFlowId(*value)
    return _DataclassRequest(*value)


class TestValueTypes:
    @pytest.mark.parametrize("value", FLOWS + REQUESTS, ids=repr)
    def test_hash_is_the_tuple_of_fields(self, value):
        assert hash(value) == hash(tuple(value))
        assert hash(value) == hash(_reference(value))

    @pytest.mark.parametrize("value", FLOWS + REQUESTS, ids=repr)
    def test_repr_is_the_dataclass_repr(self, value):
        expected = repr(_reference(value)).replace("_Dataclass", "")
        assert repr(value) == expected

    def test_repr_is_pinned(self):
        assert repr(FlowId(3, 5, TrafficClass.GL)) == (
            "FlowId(src=3, dst=5, traffic_class=<TrafficClass.GL: 2>)"
        )
        assert repr(Request(0, TrafficClass.GB, 8)) == (
            "Request(input_port=0, traffic_class=<TrafficClass.GB: 1>, "
            "packet_flits=8, queued_flits=0, arrival_cycle=0)"
        )

    @pytest.mark.parametrize("value", FLOWS + REQUESTS, ids=repr)
    def test_pickle_round_trips(self, value):
        restored = pickle.loads(pickle.dumps(value))
        assert type(restored) is type(value)
        assert restored == value
        assert repr(restored) == repr(value)

    def test_pickled_values_are_validated_again(self):
        # Unpickling calls __new__ with the fields, so a stream cannot
        # smuggle in a value the constructor would reject.
        stream = pickle.dumps(FlowId(1, 2), protocol=4)
        forged = stream.replace(b"K\x01K\x02", b"K\x01J\xff\xff\xff\xff")  # dst -1
        assert forged != stream
        with pytest.raises(ValueError, match="non-negative"):
            pickle.loads(forged)

    def test_flow_validation_errors_unchanged(self):
        with pytest.raises(ValueError, match=r"flow endpoints must be non-negative, got GB\[-1->0\]"):
            FlowId(-1, 0)
        with pytest.raises(ValueError, match=r"got GL\[0->-2\]"):
            FlowId(0, -2, TrafficClass.GL)

    def test_request_validation_errors_unchanged(self):
        with pytest.raises(ValueError, match="input_port must be >= 0, got -1"):
            Request(-1, TrafficClass.GB, 8)
        with pytest.raises(ValueError, match="packet_flits must be positive, got 0"):
            Request(0, TrafficClass.GB, 0)

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            FlowId(1, 2).src = 3  # type: ignore[misc]
        with pytest.raises(AttributeError):
            Request(0, TrafficClass.GB, 8).packet_flits = 4  # type: ignore[misc]

    def test_no_instance_dict(self):
        assert not hasattr(FlowId(1, 2), "__dict__")
        assert not hasattr(Request(0, TrafficClass.GB, 8), "__dict__")


class TestTupleSemantics:
    """What being a tuple adds; each of these raised or differed before."""

    def test_equal_to_a_plain_tuple_of_its_fields(self):
        # Equal and same hash, so one dict must never mix FlowId keys with
        # plain 3-tuples: the two would collide into one entry.
        assert FlowId(1, 2) == (1, 2, TrafficClass.GB)
        assert FlowId(1, 2) == (1, 2, 1)
        assert {FlowId(1, 2): "flow"}[(1, 2, TrafficClass.GB)] == "flow"

    def test_iterates_and_unpacks(self):
        src, dst, traffic_class = FlowId(4, 6, TrafficClass.BE)
        assert (src, dst, traffic_class) == (4, 6, TrafficClass.BE)
        assert len(Request(0, TrafficClass.GB, 8)) == 5

    def test_orders_like_a_tuple(self):
        assert sorted([FlowId(2, 0), FlowId(1, 5), FlowId(1, 3)]) == [
            FlowId(1, 3),
            FlowId(1, 5),
            FlowId(2, 0),
        ]

    def test_json_emits_a_list(self):
        assert json.dumps(FlowId(1, 2)) == "[1, 2, 1]"
        assert json.dumps(Request(0, TrafficClass.GL, 8)) == "[0, 2, 8, 0, 0]"

    def test_flow_and_request_never_compare_equal(self):
        assert FlowId(0, 1) != Request(0, TrafficClass.GB, 1)


class TestPacket:
    FLOW = FlowId(1, 2, TrafficClass.GL)

    def test_rejects_zero_flits(self):
        with pytest.raises(SimulationError, match=">= 1 flit"):
            Packet(self.FLOW, 0, 0)

    def test_rejects_negative_creation_cycle(self):
        with pytest.raises(SimulationError, match="created_cycle must be >= 0"):
            Packet(self.FLOW, 8, -1)

    def test_copies_flow_fields(self):
        packet = Packet(self.FLOW, 8, 3, packet_id=9)
        assert (packet.src, packet.dst, packet.traffic_class) == tuple(self.FLOW)
        assert packet.packet_id == 9

    def test_is_slotted(self):
        packet = Packet(self.FLOW, 8, 3, packet_id=9)
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.colour = "red"  # type: ignore[attr-defined]


def test_a_run_keys_its_statistics_by_flow_ids_only():
    # Arrivals wait at their sources and the collector records them from
    # their fields; every key must still be a FlowId, never a bare tuple.
    from repro.config import FIG4_CONFIG
    from repro.switch.simulator import Simulation
    from repro.traffic.patterns import fig4_workload

    result = Simulation(FIG4_CONFIG, fig4_workload(inject_rate=0.6), seed=3).run(2_000)
    assert result.stats.flows
    assert all(type(flow) is FlowId for flow in result.stats.flows)
