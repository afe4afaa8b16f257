"""The shared arbiter skeleton: one prologue, one port check, one error type.

Every per-output arbiter inherits :meth:`OutputArbiter.select` and the
``register_flow`` checks from the base class, so the same bad input fails
the same way whichever policy receives it.
"""

import pytest

from repro.errors import ArbitrationError, ConfigError
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
