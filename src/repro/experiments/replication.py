"""Multi-seed replication for simulation experiments.

Single-seed results can be noisy (Fig. 5's per-flow latencies especially);
this utility reruns an experiment across seeds and reports mean, standard
deviation, and a normal-approximation 95 % confidence interval per metric,
so EXPERIMENTS.md claims can be backed by intervals instead of point
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..parallel.envelope import SweepPoint
from ..parallel.executor import SweepExecutor
from ..resilience.keys import worker_name
from ..resilience.options import ResilienceOptions

#: An experiment run: seed in, named scalar metrics out.
MetricFn = Callable[[int], Mapping[str, float]]


class _MetricPointFn:
    """Adapter: run a :data:`MetricFn` from a sweep-point envelope.

    A class (not a closure) so the adapter pickles whenever the wrapped
    function does; an unpicklable ``fn`` (a lambda, a local closure) makes
    the executor fall back to its serial path automatically.

    The instance takes on the wrapped function's dotted name (``__module__``
    / ``__qualname__``): ``worker_name`` keys journal and catalog entries by
    it, and without the forwarding every replicated experiment would share
    the class's own name — two different experiments replicated through one
    journal (or a shared catalog) would collide on identical ``seed:<n>``
    envelopes and the second would be refused as a determinism violation.
    """

    def __init__(self, fn: MetricFn) -> None:
        self.fn = fn
        base = worker_name(fn)
        self.__module__, _, self.__qualname__ = base.rpartition(".")

    def __call__(self, point: SweepPoint) -> Dict[str, float]:
        return {name: float(v) for name, v in dict(self.fn(point.seed)).items()}


@dataclass(frozen=True)
class MetricSummary:
    """Replication statistics for one metric.

    Attributes:
        mean/std: sample mean and standard deviation across seeds.
        ci95_half_width: half-width of the normal-approximation 95 % CI.
        samples: the per-seed values, in seed order.
    """

    name: str
    mean: float
    std: float
    ci95_half_width: float
    samples: tuple

    @property
    def ci95(self) -> "tuple[float, float]":
        """The 95 % confidence interval (lower, upper)."""
        return (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.mean:.3f} ± {self.ci95_half_width:.3f} (95% CI)"


def replicate(
    fn: MetricFn,
    seeds: Sequence[int],
    jobs: int = 1,
    resilience: Optional[ResilienceOptions] = None,
) -> Dict[str, MetricSummary]:
    """Run ``fn`` once per seed and summarize every metric it returns.

    Args:
        fn: maps a seed to a dict of scalar metrics. Every run must return
            the same metric names.
        seeds: at least two seeds.
        jobs: worker processes for the per-seed runs; an unpicklable
            ``fn`` silently degrades to the serial path.

    Returns:
        One :class:`MetricSummary` per metric name.

    Raises:
        ConfigError: on fewer than two seeds or inconsistent metric names.
    """
    if len(seeds) < 2:
        raise ConfigError(f"replication needs >= 2 seeds, got {len(seeds)}")
    points = [
        SweepPoint.make(i, f"seed:{seed}", seed=seed)
        for i, seed in enumerate(seeds)
    ]
    executor = SweepExecutor(jobs=jobs, resilience=resilience)
    results = executor.map(_MetricPointFn(fn), points)
    per_metric: Dict[str, List[float]] = {}
    names = None
    for point_result in results:
        metrics = point_result.value
        seed = point_result.point.seed
        if names is None:
            names = set(metrics)
        elif set(metrics) != names:
            raise ConfigError(
                f"seed {seed} returned metrics {sorted(metrics)}, expected {sorted(names)}"
            )
        for name, value in metrics.items():
            per_metric.setdefault(name, []).append(float(value))
    summaries = {}
    for name, values in per_metric.items():
        arr = np.asarray(values)
        std = float(arr.std(ddof=1))
        summaries[name] = MetricSummary(
            name=name,
            mean=float(arr.mean()),
            std=std,
            ci95_half_width=1.96 * std / np.sqrt(len(arr)),
            samples=tuple(values),
        )
    return summaries
