"""A deliberately non-deterministic numpy module for the RL012 tests.

Every function below trips the numpy-determinism rule (or, for the two
global-state samplers, the seed rule RL001) in a different way; the
expected finding set is asserted in ``tests/test_analysis_rules.py``.
Linted under a ``src/repro/qos/`` path (RL012 only fires inside the guarded
simulator packages). This file is *not* imported anywhere — it only needs
to parse.
"""

import numpy as np


def global_state_draw(n):
    """RL001: hidden global RandomState, unreplayable."""
    return np.random.randint(0, n)


def global_state_shuffle(candidates):
    """RL001: global-state shuffle of an arbitration candidate list."""
    np.random.shuffle(candidates)
    return candidates


def float_default_dtype(radix):
    """RL012: np.zeros without a dtype defaults to float64."""
    return np.zeros((radix, radix))


def explicit_float_dtype(radix):
    """RL012: float dtype requested for a grant-path array."""
    return np.empty(radix, dtype=np.float64)


def float_cast(counters):
    """RL012: astype to float puts round-off into integer counters."""
    return counters.astype(float)


def undocumented_tie_break(keys):
    """RL012: argmin with no justification of the equal-key case."""
    return int(keys.argmin())


def undocumented_sort(levels):
    """RL012: argsort order on equal levels is an unstated assumption."""
    return np.argsort(levels)
