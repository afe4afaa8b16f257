"""Tests for repro.core.arbitration value types."""

import pytest

from repro.core.arbitration import Grant, Request
from repro.types import TrafficClass


class TestRequest:
    def test_rejects_negative_port(self):
        with pytest.raises(ValueError):
            Request(input_port=-1, traffic_class=TrafficClass.GB, packet_flits=8)

    def test_rejects_zero_flits(self):
        with pytest.raises(ValueError):
            Request(input_port=0, traffic_class=TrafficClass.GB, packet_flits=0)

    def test_frozen(self):
        req = Request(0, TrafficClass.BE, 8)
        with pytest.raises(AttributeError):
            req.input_port = 2  # type: ignore[misc]


class TestGrant:
    def test_input_port_accessor(self):
        req = Request(3, TrafficClass.GL, 1)
        assert Grant(request=req, cycle=10).input_port == 3

    def test_gl_lane_flag_defaults_false(self):
        assert Grant(Request(0, TrafficClass.GB, 8), cycle=0).via_gl_lane is False

