"""RL001 bait: unseeded RNG paths."""

import numpy as np

_STATE = {"entropy": 1234}


def make_rng(seed=None):
    # The construction *looks* seeded, but the parameter defaults to None.
    return np.random.default_rng(seed)


def sweep_point():
    # RL001: omits the seed parameter -> default None reaches the RNG.
    return make_rng()


def explicit_none():
    # RL001: passes seed=None explicitly.
    return make_rng(seed=None)


def from_module_state():
    # RL001: seed derives from module state, not a parameter or constant.
    return np.random.default_rng(_STATE["entropy"])


def os_entropy():
    # RL001: SeedSequence() with no entropy draws from the OS.
    return np.random.SeedSequence()
