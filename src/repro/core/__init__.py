"""Core QoS algorithms of the paper.

This package holds the algorithmic heart of the reproduction, independent of
both the cycle-level simulator (``repro.switch``) and the wire-level circuit
model (``repro.circuit``):

* :mod:`repro.core.virtual_clock` — auxVC counters and Vtick derivation.
* :mod:`repro.core.thermometer` — thermometer-code registers (Fig. 1a).
* :mod:`repro.core.lrg` — least-recently-granted priority state.
* :mod:`repro.core.ssvc` — the SSVC coarse-grained Virtual Clock core with
  the three finite-counter management policies.
* :mod:`repro.core.bandwidth` — per-output bandwidth reservation/admission.
* :mod:`repro.core.gl_bound` — Guaranteed Latency bound math (Eqs. 1-3).
* :mod:`repro.core.arbitration` — request/grant value types shared by all
  arbiters.
* :mod:`repro.core.matching` — round-robin pointers, keyed-hash
  queue-proportional sampling, and the :class:`~repro.core.matching.Matching`
  value type used by the iterative VOQ schedulers.
"""

from .._lazy import lazy_exports

#: Where each public name lives (loaded on first access, see
#: :mod:`repro._lazy`): an arbiter loads the algorithms it runs.
_EXPORTS = {
    ".arbitration": ("Grant", "Request"),
    ".bandwidth": ("BandwidthAllocator", "Reservation"),
    ".gl_bound": ("burst_budgets", "gl_latency_bound"),
    ".lrg": ("LRGState",),
    ".matching": ("Matching", "keyed_draw", "round_robin_pick", "sample_proportional"),
    ".ssvc": ("SSVCCore",),
    ".thermometer": ("ThermometerCode",),
    ".virtual_clock": ("VirtualClockCounter", "compute_vtick"),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "BandwidthAllocator",
    "Grant",
    "LRGState",
    "Matching",
    "Request",
    "Reservation",
    "SSVCCore",
    "ThermometerCode",
    "VirtualClockCounter",
    "burst_budgets",
    "compute_vtick",
    "gl_latency_bound",
    "keyed_draw",
    "round_robin_pick",
    "sample_proportional",
]
