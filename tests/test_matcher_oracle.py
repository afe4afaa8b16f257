"""The iterative matchers against their straightforward reference copies.

Each production matcher and its copy in ``tests/reference_matchers.py``
see the same random sequence of ``match(backlog, free_outputs, now)``
calls, shaped as the event kernel makes them: free outputs in increasing
order, one non-empty row per requesting input (inputs and each row's
outputs in increasing order, every output free, every weight positive)
and increasing cycles with gaps, so SW-QPS replays skipped cycles. After
every call the two must return equal :class:`Matching` values (pairs in
the same order, iterations, proposals) and hold equal pointer or window
state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import (
    draw_prefix,
    keyed_draw,
    pick_proportional,
    prefixed_draw,
    sample_proportional,
)
from repro.errors import ArbitrationError
from repro.qos import ISLIPArbiter, QPSRArbiter, SWQPSArbiter
from tests import reference_matchers as ref


@st.composite
def _call(draw, radix: int):
    free = sorted(
        draw(st.sets(st.integers(0, radix - 1), min_size=1, max_size=radix))
    )
    backlog = {}
    for port in sorted(draw(st.sets(st.integers(0, radix - 1), min_size=1))):
        outputs = sorted(draw(st.sets(st.sampled_from(free), min_size=1)))
        backlog[port] = {o: draw(st.integers(1, 40)) for o in outputs}
    gap = draw(st.integers(1, 2 * radix + 2))
    return backlog, free, gap


@st.composite
def _scenario(draw):
    radix = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32))
    calls = draw(st.lists(_call(radix), min_size=1, max_size=25))
    return radix, seed, calls


def _state(matcher):
    if hasattr(matcher, "_grant_pointers"):
        return (list(matcher._grant_pointers), list(matcher._accept_pointers))
    if hasattr(matcher, "_slots"):
        return (
            matcher._last_call,
            [(dict(s.by_input), dict(s.by_output)) for s in matcher._slots],
        )
    return None


def _drive(production, reference, seed, calls):
    production.bind_seed(seed)
    reference.bind_seed(seed)
    now = -1
    for backlog, free, gap in calls:
        now += gap
        got = production.match(backlog, free, now)
        want = reference.match(backlog, free, now)
        assert got == want, (now, backlog, free)
        assert _state(production) == _state(reference), now


@settings(max_examples=100, deadline=None)
@given(_scenario(), st.integers(1, 4))
def test_islip_matches_reference(scenario, iterations):
    radix, seed, calls = scenario
    _drive(
        ISLIPArbiter(radix, iterations=iterations),
        ref.ReferenceISLIP(radix, iterations=iterations),
        seed,
        calls,
    )


@settings(max_examples=100, deadline=None)
@given(_scenario(), st.integers(1, 3))
def test_qps_r_matches_reference(scenario, rounds):
    radix, seed, calls = scenario
    _drive(QPSRArbiter(radix, rounds=rounds), ref.ReferenceQPSR(radix, rounds=rounds),
           seed, calls)


@settings(max_examples=100, deadline=None)
@given(_scenario(), st.integers(1, 8))
def test_sw_qps_matches_reference(scenario, window):
    radix, seed, calls = scenario
    _drive(SWQPSArbiter(radix, window=window), ref.ReferenceSWQPS(radix, window=window),
           seed, calls)


@given(
    st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
    st.integers(0, 2**40),
)
def test_prefixed_draws_hash_the_joined_key(prefix, last):
    assert prefixed_draw(draw_prefix(*prefix), last) == ref.keyed_draw(*prefix, last)
    assert keyed_draw(*prefix, last) == ref.keyed_draw(*prefix, last)


@given(
    st.dictionaries(st.integers(0, 15), st.integers(1, 50), min_size=1),
    st.integers(0, 2**64 - 1),
)
def test_pick_proportional_walks_like_the_sorting_sampler(weights, draw):
    ordered = dict(sorted(weights.items()))
    assert pick_proportional(ordered, draw) == ref.pick_sorted(weights, draw)
    assert sample_proportional(ordered, 3, draw, 0) == ref.sample_proportional(
        weights, 3, draw, 0
    )


def test_pick_proportional_refuses_unordered_rows():
    with pytest.raises(ArbitrationError, match="increasing"):
        pick_proportional({2: 1, 1: 1}, 0)
    with pytest.raises(ArbitrationError, match="non-positive"):
        pick_proportional({1: 0}, 0)
