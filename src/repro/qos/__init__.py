"""Output arbitration policies and switch-wide matching schedulers.

Per-output arbiters implement the two-phase
:class:`~repro.qos.base.OutputArbiter` interface (``select`` followed by
``commit``, where grant state advances; the base class owns ``select``'s
request prologue and each policy supplies ``choose``; its docstring names
the four policies whose ``choose`` also changes state); iterative
schedulers implement the switch-wide
:class:`~repro.qos.iterative.IterativeArbiter` ``match`` interface over
virtual output queues. The full catalogue:

The paper's mechanisms:

* :class:`~repro.qos.lrg_arbiter.LRGArbiter` — the Swizzle Switch's default
  least-recently-granted policy (the "No QoS" baseline of Fig. 4a).
* :class:`~repro.qos.virtual_clock_arbiter.VirtualClockArbiter` — the
  original fine-grained Virtual Clock (Fig. 5's "Original Virtual Clock").
* :class:`~repro.qos.ssvc_arbiter.SSVCArbiter` — the paper's contribution:
  coarse thermometer-code comparison + LRG tie-break, with SUBTRACT / HALVE
  / RESET counter management.
* :class:`~repro.qos.three_class.ThreeClassArbiter` — the full BE/GB/GL
  stack with GL policing (Sections 3.2-3.4), assisted by
  :class:`~repro.qos.gl_policer.GLPolicer`.

Baselines discussed in Sections 2.2 and 5, implemented for the comparison
and ablation benches:

* :class:`~repro.qos.fixed_priority.FixedPriorityArbiter` — the DAC'12
  4-level message-based scheme (two arbitration cycles, starvation-prone).
* :class:`~repro.qos.arrival_stamped_vc.ArrivalStampedVCArbiter` — Virtual
  Clock stamped at arrival time (Zhang's original formulation).
* :class:`~repro.qos.preemptive_vc.PreemptiveVCArbiter` — PVC-style
  frame-based normalized usage (no in-flight preemption is modelled).
* :class:`~repro.qos.weighted_round_robin.WRRArbiter` (work-conserving and
  strict variants) and :class:`~repro.qos.deficit_round_robin.DWRRArbiter`.
* :class:`~repro.qos.fair_queuing.WFQArbiter` — finish-time fair queuing.
* :class:`~repro.qos.ccsp.CCSPArbiter` — credit-controlled static priority.
* :class:`~repro.qos.tdm.TDMArbiter` — static time-division multiplexing.
* :class:`~repro.qos.gsf.GSFArbiter` — frame-based injection control in the
  spirit of Globally Synchronized Frames.

Iterative VOQ matching schedulers (docs/SCHEDULERS.md; require
``SwitchConfig.voq=True`` and the event kernel):

* :class:`~repro.qos.islip.ISLIPArbiter` — round-robin request/grant/accept
  with the slip pointer-update rule (~100% uniform throughput).
* :class:`~repro.qos.qps.QPSRArbiter` — queue-proportional sampling with
  ``r`` propose/accept rounds.
* :class:`~repro.qos.sw_qps.SWQPSArbiter` — sliding-window QPS: a window of
  matchings refined across cycles, popped oldest-first.
"""

from .arrival_stamped_vc import ArrivalStampedVCArbiter
from .base import OutputArbiter
from .ccsp import CCSPArbiter
from .deficit_round_robin import DWRRArbiter
from .fair_queuing import WFQArbiter
from .fixed_priority import FixedPriorityArbiter
from .gl_policer import GLPolicer
from .gsf import GSFArbiter
from .islip import ISLIPArbiter
from .iterative import IterativeArbiter, shared_iterative_factory
from .lrg_arbiter import LRGArbiter
from .preemptive_vc import PreemptiveVCArbiter
from .qps import QPSRArbiter
from .ssvc_arbiter import SSVCArbiter
from .sw_qps import SWQPSArbiter
from .tdm import TDMArbiter
from .three_class import ThreeClassArbiter
from .virtual_clock_arbiter import VirtualClockArbiter
from .weighted_round_robin import WRRArbiter

__all__ = [
    "ArrivalStampedVCArbiter",
    "CCSPArbiter",
    "DWRRArbiter",
    "FixedPriorityArbiter",
    "GLPolicer",
    "GSFArbiter",
    "ISLIPArbiter",
    "IterativeArbiter",
    "LRGArbiter",
    "OutputArbiter",
    "PreemptiveVCArbiter",
    "QPSRArbiter",
    "SSVCArbiter",
    "SWQPSArbiter",
    "TDMArbiter",
    "ThreeClassArbiter",
    "VirtualClockArbiter",
    "WFQArbiter",
    "WRRArbiter",
    "shared_iterative_factory",
]
