"""A deliberately broken module exercised by the reprolint test suite.

Every statement below violates one analyzer rule; the expected finding set
is asserted in ``tests/test_analysis_contracts.py`` and, per function, in
``tests/test_analysis_coverage.py``. This file is *not* imported anywhere —
it only needs to parse.
"""

import random
from concurrent.futures import ProcessPoolExecutor
from random import shuffle

import numpy as np
import numpy.random as npr
from numpy.random import RandomState, default_rng

from repro.core import ThermometerCode
from repro.faults.injector import FaultInjector


def direct_fan_out(tasks):
    """RL009: process pool created outside repro.parallel."""
    with ProcessPoolExecutor() as pool:
        return list(pool.map(str, tasks))


def deep_fault_import(plan):
    """RL010: FaultInjector reached past the repro.faults facade."""
    return FaultInjector(plan)


def unseeded_draw():
    """RL001: draws from the global Mersenne Twister."""
    return random.random()


def unseeded_generator():
    """RL001: numpy Generator constructed without a seed."""
    return np.random.default_rng()


def imported_unseeded_generator():
    """RL001: a directly imported default_rng() without a seed."""
    return default_rng()


def imported_unseeded_random_state():
    """RL001: a directly imported RandomState() without a seed."""
    return RandomState()


def none_seeded_generator():
    """RL001: a None seed draws from OS entropy like no seed at all."""
    return default_rng(None)


def imported_global_shuffle(items):
    """RL001: a directly imported shuffle() uses the global random state."""
    shuffle(items)
    return items


def aliased_global_sampler():
    """RL001: numpy's global RandomState reached through a module alias."""
    return npr.rand(3)


def float_equality(aux_vc_value):
    """RL003: exact equality against a float credit value."""
    return aux_vc_value == 0.5


def mutable_default(history=[]):
    """RL004: the default list is shared across every call."""
    history.append(1)
    return history


def bare_except(action):
    """RL005 + RL011: bare except that also swallows the error."""
    try:
        action()
    except:
        pass


def absorb_and_continue(action, cache):
    """RL011: failure absorbed — no re-raise, no record, no exit."""
    try:
        action()
    except ValueError:
        cache.clear()


def select_without_commit(arbiter, requests, now):
    """RC101: selects a winner but never commits/abandons/returns it."""
    winner = arbiter.select(requests, now)
    print("winner", winner)


def out_of_range_thermometer():
    """RC102: constant level 9 cannot fit 4 positions."""
    return ThermometerCode(positions=4, level=9)


def untyped_config_consumer(config):
    """RC103: public function with an unannotated config parameter."""
    return config
