"""Stand-in executor, reached through the lazy facade of this package."""


class SweepExecutor:
    def __init__(self, jobs=1):
        self.jobs = jobs

    def map(self, fn, points):
        return [fn(p) for p in points]
