"""Cycle-accurate model of a single-stage Swizzle Switch crossbar.

The paper evaluates SSVC with "a custom, cycle-accurate simulator for the
Swizzle Switch" — this package is that simulator. It models:

* packets/flits (:mod:`repro.switch.flit`),
* per-input buffering with GB virtual output queues
  (:mod:`repro.switch.buffers`),
* output channels with single-cycle re-arbitration
  (:mod:`repro.switch.output_channel`),
* the crossbar tying ports to per-output arbiters
  (:mod:`repro.switch.crossbar`), and
* an event-driven simulation kernel with cycle-exact semantics
  (:mod:`repro.switch.simulator`).
"""

import importlib
from typing import Any

#: Where each public name lives. Importing a leaf such as
#: ``repro.switch.flit`` runs this file first, so nothing is imported here:
#: a name's module loads on first access (PEP 562), and a caller that needs
#: only ``Packet`` does not load the array and flit-level kernels.
_EXPORTS = {
    ".array_kernel": ("ArraySimulation",),
    ".buffers": ("FlitBuffer", "InputPort"),
    ".crossbar": ("SwizzleSwitch",),
    ".events": ("GrantEvent", "PacketDelivered"),
    ".flit": ("Flit", "Packet"),
    ".flit_kernel": ("FlitLevelSimulation",),
    ".output_channel": ("OutputChannel",),
    ".simulator": ("Simulation", "SimulationResult"),
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


__all__ = [
    "ArraySimulation",
    "Flit",
    "FlitBuffer",
    "FlitLevelSimulation",
    "GrantEvent",
    "InputPort",
    "OutputChannel",
    "Packet",
    "PacketDelivered",
    "Simulation",
    "SimulationResult",
    "SwizzleSwitch",
]
