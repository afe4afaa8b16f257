"""RL001 and RP202 bait whose callees resolve only through the facade."""

from lazypkg import SweepExecutor, make_rng

_SEEN = []


def record(point):
    # RP202: a worker appending to module state; per-process copies diverge.
    _SEEN.append(point)
    return point


def run_lazy(points):
    executor = SweepExecutor(jobs=2)
    return executor.map(record, points)


def unseeded_point():
    # RL001: the facade's make_rng defaults its seed to None.
    return make_rng()
