"""The RNG helper behind the facade: its seed defaults to None."""

import numpy as np


def make_rng(seed=None):
    return np.random.default_rng(seed)
