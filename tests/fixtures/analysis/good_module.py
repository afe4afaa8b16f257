"""The well-behaved twin of ``bad_module.py`` — must lint clean.

Mirrors each violation in the bad module with the sanctioned pattern, so
the contract tests prove the rules do not flag correct idioms.
"""

import math
import random
from typing import Optional, Sequence

import numpy as np
import numpy.random as npr
from numpy.random import RandomState, default_rng

from repro.config import SwitchConfig
from repro.core import ThermometerCode
from repro.errors import ReproError
from repro.faults import FaultPlan, resolve_injector
from repro.parallel import SweepExecutor, SweepPoint


def seeded_draw(seed: int) -> float:
    """Seeded construction is the sanctioned RNG idiom."""
    rng = np.random.default_rng(seed)
    return float(rng.random())


def imported_seeded_generator(seed: int):
    """A directly imported default_rng() with an explicit seed."""
    return default_rng(seed)


def imported_seeded_random_state(seed: int):
    """A directly imported RandomState() with an explicit seed."""
    return RandomState(seed)


def sequence_seeded_generator(seed: int):
    """A SeedSequence seed instead of None."""
    return default_rng(np.random.SeedSequence(seed))


def seeded_shuffle(items: list, seed: int) -> list:
    """Shuffling through a seeded Random instead of the global state."""
    random.Random(seed).shuffle(items)
    return items


def aliased_seeded_sampler(seed: int):
    """Drawing from a seeded Generator reached through a module alias."""
    return npr.default_rng(seed).random(3)


def float_comparison(aux_vc_value: float) -> bool:
    """Tolerant comparison instead of exact equality."""
    return math.isclose(aux_vc_value, 0.5)


def immutable_default(history: Optional[list] = None) -> list:
    """None default plus in-body construction."""
    if history is None:
        history = []
    history.append(1)
    return history


def narrow_except(action) -> bool:
    """Concrete exception type, error surfaced to the caller."""
    try:
        action()
    except ReproError:
        return False
    return True


def absorb_and_record(action, probe) -> None:
    """An absorbed failure leaves a counter behind, satisfying RL011."""
    try:
        action()
    except ReproError:
        probe.count("resilience.failures", 1)


def select_and_commit(arbiter, requests: Sequence, now: int):
    """The full select/commit protocol."""
    winner = arbiter.select(requests, now)
    if winner is not None:
        arbiter.commit(winner, now)
    return winner


def select_and_delegate(arbiter, requests: Sequence, now: int):
    """Returning the selection passes the commit obligation upward."""
    return arbiter.select(requests, now)


def in_range_thermometer() -> ThermometerCode:
    """Constant level inside [0, positions)."""
    return ThermometerCode(positions=4, level=3)


def typed_config_consumer(config: SwitchConfig) -> int:
    """Annotated config parameter satisfies RC103."""
    return config.radix


def sanctioned_fan_out(fn, seeds: Sequence[int], jobs: int) -> list:
    """Parallelism through the audited executor satisfies RL009."""
    points = [
        SweepPoint.make(i, f"seed:{seed}", seed=seed)
        for i, seed in enumerate(seeds)
    ]
    return SweepExecutor(jobs=jobs).map(fn, points)


def sanctioned_fault_resolution(plan: Optional[FaultPlan]):
    """Fault hooks through the package facade satisfy RL010."""
    return resolve_injector(plan)
