"""Integer-exact vectorized arbitration primitives (array kernel backend).

The array kernel (:mod:`repro.switch.array_kernel`) batches one cycle's
arbitration across all outputs at once. This module holds the pure
building blocks it shares, each the element-wise twin of a scalar routine
elsewhere in :mod:`repro.core`; the kernel computes counter decay, the
composite key and its argmin inline:

* :func:`lrg_ranks` / :func:`lrg_commit` — the self-updating
  least-recently-granted order of :class:`LRGState` as a rank vector;
* :func:`coarse_row` — the class-precedence of
  :meth:`InputPort.head_for_output` plus the GL/GB/BE plane priority of
  :class:`ThreeClassArbiter` collapsed into one integer band per input;
* :func:`gl_eligibility_threshold` — the GL policer's float clock
  predicate folded into one integer cycle threshold, so the kernel's
  per-cycle eligibility test is an integer compare.

Everything here works on **integer dtypes only** — the grant path never
compares floats (the one float input, the policer clock, is converted to
an integer threshold once per transmission, outside the per-cycle loop).
Property tests (``tests/test_vectorized_properties.py``) pin each helper
element-wise against its scalar counterpart on randomized inputs.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import numpy.typing as npt

IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

#: Coarse band of an input presenting no head for the output: larger than
#: any real band (GL=0, GB=1..levels, BE/demoted-GL=levels+1) for every
#: supported ``levels`` (<= 2**16 significant-bit levels).
NO_REQUEST: int = 1 << 20

#: Sentinel for masked-out entries of a composite-key row. Strictly larger
#: than any real key (``NO_REQUEST * radix + rank < 2**31``) so a row
#: whose minimum reaches this value has no eligible requester.
MASKED: int = 1 << 40

#: GL threshold meaning "never eligible" (zero reserved rate).
NEVER_ELIGIBLE: int = 1 << 60

#: GL threshold meaning "always eligible" (policing disabled).
ALWAYS_ELIGIBLE: int = 0


def lrg_ranks(order: Sequence[int]) -> IntArray:
    """Rank vector (0 = highest priority) from an LRG priority order."""
    n = len(order)
    ranks = np.empty(n, dtype=np.int64)
    for rank, inp in enumerate(order):
        ranks[inp] = rank
    return ranks


def lrg_commit(rank_row: IntArray, winner: int) -> None:
    """Demote ``winner`` below all others, in place.

    Twin of :meth:`LRGState.grant`: the winner moves to the bottom of the
    priority order (rank ``n - 1``) and everyone previously below it moves
    up one slot.
    """
    old = int(rank_row[winner])
    rank_row[rank_row > old] -= 1
    rank_row[winner] = rank_row.shape[0] - 1


def coarse_row(
    gl_here: BoolArray,
    gb_here: BoolArray,
    be_here: BoolArray,
    gb_levels: IntArray,
    allow_gl: bool,
    levels: int,
) -> IntArray:
    """Coarse priority band per input for one output, vectorized.

    Collapses :meth:`InputPort.head_for_output` (which head each input
    presents) and the three-class plane priority (GL > GB > BE) into one
    integer band: an eligible GL head is band 0, a GB head is
    ``1 + level`` (so better levels beat worse ones and every GB band
    beats BE), and a BE head — or a policer-demoted GL head riding along
    as best effort — is ``levels + 1``. Inputs presenting nothing get
    :data:`NO_REQUEST`.
    """
    be_band = levels + 1
    gb_banded = np.where(gb_here, gb_levels + 1, NO_REQUEST)
    if allow_gl:
        banded: IntArray = np.where(
            gl_here,
            0,
            np.where(gb_here, gb_banded, np.where(be_here, be_band, NO_REQUEST)),
        )
        return banded
    # Policer-throttled GL: the GB/BE head in front requests instead, and
    # the GL head itself is only presented when nothing else wants the
    # output (best-effort demotion).
    demoted: IntArray = np.where(
        gb_here, gb_banded, np.where(be_here | gl_here, be_band, NO_REQUEST)
    )
    return demoted


def gl_eligibility_threshold(
    usage_clock: float,
    burst_window: Optional[float],
    reserved_rate: float,
) -> int:
    """Smallest integer cycle at which the GL plane is eligible.

    Between transmissions the policer clock is frozen, and
    :meth:`GLPolicer.eligible` — ``max(clock - now, 0.0) <= burst_window``
    — is monotone in ``now``, so eligibility over integer cycles is fully
    described by one threshold: eligible iff ``now >= threshold``. The
    threshold is located by evaluating the policer's *exact float
    predicate* on a handful of integers around ``ceil(clock - window)``,
    so the integer compare the kernel performs each cycle is bit-identical
    to the float compare the reference kernel performs.

    Returns :data:`NEVER_ELIGIBLE` for a zero reservation (the rate check
    precedes the window check, matching the policer) and
    :data:`ALWAYS_ELIGIBLE` when policing is disabled.
    """
    if reserved_rate <= 0.0:
        return NEVER_ELIGIBLE
    if burst_window is None:
        return ALWAYS_ELIGIBLE
    guess = math.ceil(usage_clock - float(burst_window))
    t = max(guess - 4, 0)
    # Walk to the first integer satisfying the exact predicate; float
    # rounding shifts the analytic boundary by far less than the 4-cycle
    # back-off at these magnitudes, and monotonicity makes the first hit
    # the true threshold.
    while max(usage_clock - t, 0.0) > burst_window:
        t += 1
    return t
