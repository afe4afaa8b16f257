"""repro — reproduction of *Quality-of-Service for a High-Radix Switch*
(Abeyratne et al., DAC 2014).

The paper adds three traffic classes to the Swizzle Switch, a single-stage
high-radix crossbar: Best-Effort (LRG arbitration), Guaranteed Bandwidth
(SSVC — a single-cycle, thermometer-coded hardware adaptation of the
Virtual Clock algorithm), and Guaranteed Latency (a dedicated top-priority
lane with a closed-form waiting-time bound).

Quick start::

    from repro import (
        SwitchConfig, Simulation, fig4_workload, ARBITER_PRESETS,
    )

    config = SwitchConfig(radix=8, channel_bits=128)
    workload = fig4_workload(inject_rate=None)   # saturating sources
    sim = Simulation(config, workload, arbiter_factory=ARBITER_PRESETS["ssvc"])
    result = sim.run(50_000)
    print(result.stats.output_throughput(0))

Package map:

* :mod:`repro.core` — the QoS algorithms (auxVC counters, thermometer
  codes, LRG, SSVC, bandwidth admission, GL bound math).
* :mod:`repro.circuit` — the wire-level arbitration model and its
  verification against the reference decision (paper Section 4.1).
* :mod:`repro.qos` — output arbiters: the paper's stack plus WRR, DWRR,
  WFQ, TDM, GSF, and the DAC'12 fixed-priority baseline.
* :mod:`repro.switch` — the cycle-accurate crossbar simulator.
* :mod:`repro.traffic` — workloads: flows, injection processes, patterns,
  trace record/replay.
* :mod:`repro.metrics` — throughput/latency statistics and report tables.
* :mod:`repro.hw` — storage/area/timing/lane cost models (Tables 1-2).
* :mod:`repro.experiments` — one harness module per paper table/figure;
  also the ``repro-exp`` CLI.
"""

import importlib
from typing import Any

#: Where each public name lives. ``import repro`` loads none of these:
#: a name's module is imported on first access (PEP 562), so a tool that
#: needs one subpackage, such as the stdlib-only linter in
#: ``repro.analysis``, does not pay for numpy and the simulators.
_EXPORTS = {
    ".config": ("FIG4_CONFIG", "TABLE1_CONFIG", "GLPolicerConfig", "QoSConfig", "SwitchConfig"),
    ".core": (
        "BandwidthAllocator",
        "LRGState",
        "Request",
        "SSVCCore",
        "ThermometerCode",
        "VirtualClockCounter",
        "burst_budgets",
        "compute_vtick",
        "gl_latency_bound",
    ),
    ".errors": (
        "AdmissionError",
        "ArbitrationError",
        "CircuitError",
        "ConfigError",
        "ReproError",
        "SimulationError",
        "TrafficError",
        "VerificationError",
    ),
    ".experiments": ("ARBITER_PRESETS", "make_arbiter_factory", "run_simulation"),
    ".serialization": ("load_experiment", "save_experiment"),
    ".qos": (
        "DWRRArbiter",
        "FixedPriorityArbiter",
        "GSFArbiter",
        "LRGArbiter",
        "OutputArbiter",
        "SSVCArbiter",
        "TDMArbiter",
        "ThreeClassArbiter",
        "VirtualClockArbiter",
        "WFQArbiter",
        "WRRArbiter",
    ),
    ".switch": ("Packet", "Simulation", "SimulationResult", "SwizzleSwitch"),
    ".traffic": (
        "BernoulliInjection",
        "BurstyInjection",
        "FlowSpec",
        "SaturatingInjection",
        "Workload",
        "be_flow",
        "fig4_workload",
        "gb_flow",
        "gl_flow",
        "hotspot_workload",
        "permutation_workload",
        "single_output_workload",
        "uniform_random_workload",
    ),
    ".types": ("CounterMode", "FlowId", "TrafficClass"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "1.0.0"

__all__ = [
    "ARBITER_PRESETS",
    "AdmissionError",
    "ArbitrationError",
    "BandwidthAllocator",
    "BernoulliInjection",
    "BurstyInjection",
    "CircuitError",
    "ConfigError",
    "CounterMode",
    "DWRRArbiter",
    "FIG4_CONFIG",
    "FixedPriorityArbiter",
    "FlowId",
    "FlowSpec",
    "GLPolicerConfig",
    "GSFArbiter",
    "LRGArbiter",
    "LRGState",
    "OutputArbiter",
    "Packet",
    "QoSConfig",
    "ReproError",
    "Request",
    "SSVCArbiter",
    "SSVCCore",
    "SaturatingInjection",
    "Simulation",
    "SimulationError",
    "SimulationResult",
    "SwitchConfig",
    "SwizzleSwitch",
    "TABLE1_CONFIG",
    "TDMArbiter",
    "ThermometerCode",
    "ThreeClassArbiter",
    "TrafficClass",
    "TrafficError",
    "VerificationError",
    "VirtualClockArbiter",
    "VirtualClockCounter",
    "WFQArbiter",
    "WRRArbiter",
    "Workload",
    "be_flow",
    "burst_budgets",
    "compute_vtick",
    "fig4_workload",
    "gb_flow",
    "gl_flow",
    "gl_latency_bound",
    "hotspot_workload",
    "load_experiment",
    "make_arbiter_factory",
    "permutation_workload",
    "save_experiment",
    "run_simulation",
    "single_output_workload",
    "uniform_random_workload",
]
