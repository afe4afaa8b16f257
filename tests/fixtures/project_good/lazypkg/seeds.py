"""The RNG helper behind the facade: every caller threads a seed."""

import numpy as np


def make_rng(seed):
    return np.random.default_rng(seed)
