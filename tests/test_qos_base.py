"""The shared arbiter skeleton: one prologue, one port check, one error type.

Every per-output arbiter inherits :meth:`OutputArbiter.select` and the
``register_flow`` checks from the base class, so the same bad input fails
the same way whichever policy receives it.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FIG4_CONFIG
from repro.core.arbitration import Request
from repro.core.lrg import LRGState
from repro.errors import ArbitrationError, ConfigError
from repro.experiments.presets import ARBITER_PRESETS
from repro.qos import (
    ArrivalStampedVCArbiter,
    CCSPArbiter,
    DWRRArbiter,
    FixedPriorityArbiter,
    GSFArbiter,
    ISLIPArbiter,
    LRGArbiter,
    PreemptiveVCArbiter,
    SSVCArbiter,
    TDMArbiter,
    ThreeClassArbiter,
    VirtualClockArbiter,
    WFQArbiter,
    WRRArbiter,
)
from repro.types import TrafficClass
from tests.conftest import gb_request

#: Per-output arbiters that take reservations through ``register_flow``.
RESERVING = [
    ArrivalStampedVCArbiter,
    CCSPArbiter,
    DWRRArbiter,
    GSFArbiter,
    PreemptiveVCArbiter,
    SSVCArbiter,
    TDMArbiter,
    ThreeClassArbiter,
    VirtualClockArbiter,
    WFQArbiter,
    WRRArbiter,
]

#: Every per-output arbiter.
PER_OUTPUT = RESERVING + [FixedPriorityArbiter, LRGArbiter]

#: Arbiters that refuse a requester without a reservation.
RESERVATION_REQUIRED = [
    ArrivalStampedVCArbiter,
    CCSPArbiter,
    PreemptiveVCArbiter,
    SSVCArbiter,
    VirtualClockArbiter,
]


@pytest.mark.parametrize("port", [9, 4, -1])
@pytest.mark.parametrize("cls", RESERVING, ids=lambda cls: cls.__name__)
def test_register_flow_rejects_out_of_range_port_with_config_error(cls, port):
    with pytest.raises(ConfigError, match="out of range"):
        cls(4).register_flow(port, 0.5, 8)


@pytest.mark.parametrize("cls", PER_OUTPUT, ids=lambda cls: cls.__name__)
def test_no_requests_means_no_winner(cls):
    assert cls(4).select([], now=0) is None


@pytest.mark.parametrize("cls", PER_OUTPUT, ids=lambda cls: cls.__name__)
def test_duplicate_ports_are_an_arbitration_error(cls):
    with pytest.raises(ArbitrationError, match="duplicate requesting ports"):
        cls(4).select([gb_request(1), gb_request(1)], now=0)


@pytest.mark.parametrize("cls", PER_OUTPUT, ids=lambda cls: cls.__name__)
def test_out_of_range_port_is_an_arbitration_error(cls):
    arbiter = cls(4)
    if hasattr(arbiter, "register_flow"):
        arbiter.register_flow(1, 0.5, 8)
    for requests in ([gb_request(9)], [gb_request(1), gb_request(4)]):
        with pytest.raises(ArbitrationError, match="out of range"):
            arbiter.select(requests, now=0)


@pytest.mark.parametrize(
    "cls",
    [cls for cls in PER_OUTPUT if "lrg" in inspect.signature(cls).parameters],
    ids=lambda cls: cls.__name__,
)
def test_lrg_of_another_radix_is_a_config_error(cls):
    with pytest.raises(ConfigError, match="LRG state sized for 8"):
        cls(4, lrg=LRGState(8))


@pytest.mark.parametrize("cls", PER_OUTPUT, ids=lambda cls: cls.__name__)
def test_radix_below_one_is_a_config_error(cls):
    with pytest.raises(ConfigError):
        cls(0)


@pytest.mark.parametrize("cls", RESERVATION_REQUIRED, ids=lambda cls: cls.__name__)
def test_unregistered_input_at_select_is_an_arbitration_error(cls):
    arbiter = cls(4)
    arbiter.register_flow(0, 0.5, 8)
    with pytest.raises(ArbitrationError):
        arbiter.select([gb_request(0), gb_request(2)], now=0)


def test_iterative_scheduler_still_refuses_per_output_calls():
    islip = ISLIPArbiter(4)
    for requests in ([], [gb_request(0)]):
        with pytest.raises(ArbitrationError, match="match\\(\\)"):
            islip.select(requests, now=0)
    with pytest.raises(ArbitrationError, match="match\\(\\)"):
        islip.choose([gb_request(0)], now=0)
    with pytest.raises(ArbitrationError, match="match\\(\\)"):
        islip.commit(gb_request(0), now=0)


#: Presets whose ``select`` keeps no bookkeeping at all (see the selection
#: contract in ``OutputArbiter``'s docstring for the four that do).
STATELESS_SELECT = ["lrg", "ssvc", "ssvc-halve", "ssvc-reset", "ssvc-subtract", "three-class"]


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(STATELESS_SELECT),
    history=st.lists(
        st.tuples(st.sets(st.integers(0, 7), min_size=1), st.integers(1, 400)),
        max_size=40,
    ),
    gap=st.integers(0, 3_000),
    classes=st.dictionaries(
        st.integers(0, 7), st.sampled_from([TrafficClass.GB, TrafficClass.BE]), min_size=1
    ),
)
def test_select_twice_without_commit_changes_nothing(preset, history, gap, classes):
    arbiter = ARBITER_PRESETS[preset](0, FIG4_CONFIG)
    if hasattr(arbiter, "register_flow"):
        for port in range(8):
            # Vticks of 800/(port + 1) cycles: a few grants reach saturation.
            arbiter.register_flow(port, 0.01 * (port + 1), 8)
    now = 0
    for ports, step in history:
        now += step
        arbiter.arbitrate([gb_request(p) for p in sorted(ports)], now)
    now += gap
    requests = [
        Request(input_port=p, traffic_class=c, packet_flits=8) for p, c in sorted(classes.items())
    ]
    core = getattr(getattr(arbiter, "gb_arbiter", arbiter), "core", None)
    order = arbiter.lrg.order
    counters = core.snapshot(now) if core is not None else None

    first = arbiter.select(requests, now)
    assert arbiter.select(requests, now) == first
    assert arbiter.lrg.order == order
    if core is not None:
        assert core.snapshot(now) == counters
