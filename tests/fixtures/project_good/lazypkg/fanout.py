"""The fan-out of ``project_bad``'s lazy package, done right."""

from lazypkg import SweepExecutor, make_rng


def record(point):
    return [point][0]


def run_lazy(points):
    executor = SweepExecutor(jobs=2)
    return executor.map(record, points)


def seeded_point(seed):
    return make_rng(seed)
