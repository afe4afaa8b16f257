"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_project
from repro.config import GLPolicerConfig, QoSConfig, SwitchConfig
from repro.core.arbitration import Request
from repro.types import TrafficClass


@pytest.fixture(scope="session")
def src_report():
    """One whole-program lint report of ``src/``, shared by every
    clean-tree assertion so the suite analyses the tree only once."""
    return analyze_project([str(Path(__file__).resolve().parents[1] / "src")])


@pytest.fixture
def small_config() -> SwitchConfig:
    """A 4x4 switch convenient for hand-traced schedules."""
    return SwitchConfig(
        radix=4,
        channel_bits=64,
        gb_buffer_flits=16,
        be_buffer_flits=8,
        gl_buffer_flits=8,
        qos=QoSConfig(sig_bits=3, frac_bits=6),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )


@pytest.fixture
def fig4_config() -> SwitchConfig:
    """The paper's Fig. 4 configuration."""
    from repro.config import FIG4_CONFIG

    return FIG4_CONFIG


def gb_request(port: int, flits: int = 8, queued: int = 0, arrival: int = 0) -> Request:
    """Shorthand GB request used across arbiter tests."""
    return Request(
        input_port=port,
        traffic_class=TrafficClass.GB,
        packet_flits=flits,
        queued_flits=queued,
        arrival_cycle=arrival,
    )


def be_request(port: int, flits: int = 8) -> Request:
    """Shorthand BE request."""
    return Request(input_port=port, traffic_class=TrafficClass.BE, packet_flits=flits)


def gl_request(port: int, flits: int = 1) -> Request:
    """Shorthand GL request."""
    return Request(input_port=port, traffic_class=TrafficClass.GL, packet_flits=flits)
