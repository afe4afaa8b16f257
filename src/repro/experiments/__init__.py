"""Experiment harness: one module per paper table/figure.

| Module | Paper result |
|---|---|
| :mod:`repro.experiments.fig4_bandwidth` | Fig. 4 (a/b): accepted throughput vs. injection rate, LRG vs. SSVC |
| :mod:`repro.experiments.fig5_latency_fairness` | Fig. 5: latency vs. bandwidth allocation for VC / subtract / halve / reset |
| :mod:`repro.experiments.table1_storage` | Table 1: SSVC storage requirements |
| :mod:`repro.experiments.table2_frequency` | Table 2: frequency with/without SSVC |
| :mod:`repro.experiments.rate_adherence` | Section 4.2: random reserved-rate combinations all met |
| :mod:`repro.experiments.gl_latency_bound` | Section 3.4 Eq. 1: GL waiting-time bound |
| :mod:`repro.experiments.gl_burst` | Section 3.4 Eqs. 2-3: burst budgets |
| :mod:`repro.experiments.scalability` | Section 4.4: lanes, and accuracy vs. significant bits |
| :mod:`repro.experiments.circuit_verification` | Section 4.1: wire model equivalence |
| :mod:`repro.experiments.baseline_comparison` | Section 2.2: WRR/TDM underutilization ablation |
| :mod:`repro.experiments.composition` | Section 4.4 extension: multi-switch composition |
| :mod:`repro.experiments.faults_resilience` | Extension: QoS guarantee survival under injected faults |
| :mod:`repro.experiments.tournament` | Extension: classic SSVC vs iterative VOQ schedulers (docs/SCHEDULERS.md) |

Run any of them via ``repro-exp <name>`` (see :mod:`repro.experiments.cli`).
"""

from .._lazy import lazy_exports

#: Where each public name lives (loaded on first access, see
#: :mod:`repro._lazy`): ``repro-exp table1`` imports its own module, not
#: every artifact and the simulator behind them.
_EXPORTS = {
    ".common": ("run_simulation",),
    ".presets": ("ARBITER_PRESETS", "make_arbiter_factory"),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = ["ARBITER_PRESETS", "make_arbiter_factory", "run_simulation"]
