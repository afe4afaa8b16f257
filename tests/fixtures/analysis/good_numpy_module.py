"""The sanctioned numpy idioms RL012 must *not* flag.

Mirror of ``bad_numpy_module.py``: integer dtypes throughout, seeded
generator construction, and documented tie-breaks. Linted under a
``src/repro/qos/`` path in ``tests/test_analysis_rules.py``; the expected
finding set is empty. Not imported anywhere — it only needs to parse.
"""

import numpy as np


def seeded_generator(master_seed):
    """Seeded SeedSequence/default_rng is the repo's RNG convention."""
    seq = np.random.SeedSequence(master_seed)
    return np.random.default_rng(seq)


def integer_matrix(radix):
    """Grant-path arrays carry explicit integer dtypes."""
    return np.zeros((radix, radix), dtype=np.int64)


def bool_mask(radix):
    """Masks are explicit bools, not truthy floats."""
    return np.ones(radix, dtype=bool)


def integer_cast(counters):
    """Casting *to* an integer dtype is fine."""
    return counters.astype(np.int64)


def documented_tie_break(keys):
    # tie-break: keys fuse level and LRG rank, so they are unique per
    # row and argmin's lowest-index rule never engages.
    return int(keys.argmin())


def inferred_integer_array(values):
    """np.asarray of integers infers an integer dtype; nothing to flag."""
    return np.asarray(values)
