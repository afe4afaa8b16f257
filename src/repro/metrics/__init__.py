"""Measurement: per-flow throughput/latency statistics and report tables.

* :mod:`repro.metrics.latency` — streaming latency statistics with exact
  percentiles.
* :mod:`repro.metrics.counters` — the per-flow/per-output collector the
  simulator feeds.
* :mod:`repro.metrics.throughput` — time-windowed throughput series.
* :mod:`repro.metrics.report` — ASCII tables for the experiment harness,
  formatted like the paper's tables.
"""

from .._lazy import lazy_exports

#: Where each public name lives (loaded on first access, see
#: :mod:`repro._lazy`): the closed-form tables format with
#: :mod:`repro.metrics.report` without loading numpy for the statistics.
_EXPORTS = {
    ".counters": ("FlowStats", "StatsCollector"),
    ".latency": ("LatencyStats",),
    ".report": ("format_table",),
    ".throughput": ("ThroughputWindow",),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "FlowStats",
    "LatencyStats",
    "StatsCollector",
    "ThroughputWindow",
    "format_table",
]
