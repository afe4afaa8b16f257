"""Hypothesis properties: vectorized arbitration primitives vs. scalars.

Each helper in :mod:`repro.core.vectorized` claims to be the element-wise
twin of a scalar routine in :mod:`repro.core` / :mod:`repro.qos`. The
array-kernel parity suite checks the composed whole, including the decay,
key and argmin the kernel computes inline; these properties pin each
shared helper on randomized inputs (radix 2..16, all three traffic
classes).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GLPolicerConfig
from repro.core import vectorized as vec
from repro.core.lrg import LRGState
from repro.qos.gl_policer import GLPolicer

RADIX = st.integers(min_value=2, max_value=16)
LEVELS = st.integers(min_value=2, max_value=8)

common = settings(deadline=None, max_examples=75)


# ------------------------------------------------------------------- LRG


@st.composite
def lrg_trace(draw):
    """(n, initial order, per-step candidate masks — each non-empty)."""
    n = draw(RADIX)
    order = draw(st.permutations(list(range(n))))
    steps = draw(
        st.lists(
            st.lists(
                st.booleans(), min_size=n, max_size=n
            ).filter(lambda bits: any(bits)),
            min_size=1,
            max_size=12,
        )
    )
    return n, order, steps


@common
@given(lrg_trace())
def test_lrg_select_and_commit_track_lrgstate(data):
    n, order, steps = data
    state = LRGState(n, initial_order=order)
    ranks = vec.lrg_ranks(order)
    for mask in steps:
        requesters = [i for i, bit in enumerate(mask) if bit]
        # The smallest rank among the requesters is the LRG winner, as the
        # array kernel's argmin over a composite-key row finds it.
        winner = min(requesters, key=lambda i: int(ranks[i]))
        assert winner == state.arbitrate(requesters)
        state.grant(winner)
        vec.lrg_commit(ranks, winner)
        # The rank vector stays the permutation LRGState holds as a list.
        assert list(ranks) == [state.rank(i) for i in range(n)]


# ---------------------------------------------------- three-class precedence


def _scalar_coarse(gl, gb, be, level, allow_gl, levels):
    """Per-input reference for coarse_row: GL > GB > BE precedence, with a
    policer-demoted GL head riding along as best effort."""
    if allow_gl and gl:
        return 0
    if gb:
        return level + 1
    if be or (gl and not allow_gl):
        return levels + 1
    return vec.NO_REQUEST


@st.composite
def class_row(draw):
    n = draw(RADIX)
    levels = draw(LEVELS)
    gl = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gb = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    be = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    level_row = draw(
        st.lists(
            st.integers(min_value=0, max_value=levels - 1), min_size=n, max_size=n
        )
    )
    allow_gl = draw(st.booleans())
    return n, levels, gl, gb, be, level_row, allow_gl


@common
@given(class_row())
def test_coarse_row_matches_scalar_precedence(data):
    n, levels, gl, gb, be, level_row, allow_gl = data
    got = vec.coarse_row(
        np.asarray(gl, dtype=bool),
        np.asarray(gb, dtype=bool),
        np.asarray(be, dtype=bool),
        np.asarray(level_row, dtype=np.int64),
        allow_gl,
        levels,
    )
    for i in range(n):
        expected = _scalar_coarse(gl[i], gb[i], be[i], level_row[i], allow_gl, levels)
        assert int(got[i]) == expected, (i, gl[i], gb[i], be[i], allow_gl)


# ------------------------------------------------------------- GL policer


@st.composite
def policer_history(draw):
    rate = draw(
        st.floats(
            min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
        )
    )
    window = draw(st.integers(min_value=1, max_value=4096))
    transmits = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=64),  # cycle gap
                st.integers(min_value=1, max_value=8),  # packet flits
            ),
            max_size=16,
        )
    )
    return rate, window, transmits


@common
@given(policer_history())
def test_gl_threshold_reproduces_the_exact_float_predicate(data):
    rate, window, transmits = data
    policer = GLPolicer(GLPolicerConfig(reserved_rate=rate, burst_window=window))
    now = 0
    for gap, flits in transmits:
        now += gap
        policer.on_transmit(flits, now)
    threshold = vec.gl_eligibility_threshold(policer.usage_clock, window, rate)
    # The integer compare must agree with the float predicate at every
    # integer cycle: near the boundary and far on both sides of it.
    probes = {max(threshold + d, 0) for d in range(-6, 7)}
    probes.update({0, now, now + window, threshold * 2 + 64})
    for cycle in sorted(probes):
        assert (cycle >= threshold) == policer.eligible(cycle), (
            cycle,
            threshold,
            policer.usage_clock,
        )


@common
@given(st.integers(min_value=0, max_value=1 << 16))
def test_gl_threshold_sentinels_match_policer_edge_modes(now):
    # Zero reservation: never eligible, regardless of the window.
    unreserved = GLPolicer(GLPolicerConfig(reserved_rate=0.0, burst_window=8))
    assert vec.gl_eligibility_threshold(0.0, 8, 0.0) == vec.NEVER_ELIGIBLE
    assert not unreserved.eligible(now)
    assert now < vec.NEVER_ELIGIBLE  # the sentinel really means "never"
    # Policing disabled: always eligible once a reservation exists.
    unpoliced = GLPolicer(GLPolicerConfig(reserved_rate=0.25, burst_window=None))
    unpoliced.on_transmit(4, now)
    threshold = vec.gl_eligibility_threshold(unpoliced.usage_clock, None, 0.25)
    assert threshold == vec.ALWAYS_ELIGIBLE
    assert unpoliced.eligible(now)
