"""Run observability: probes, run reports, and structured traces.

The simulation kernels (:mod:`repro.switch.simulator`,
:mod:`repro.switch.flit_kernel`, :mod:`repro.multiswitch.simulator`) accept
an optional :class:`Probe` and feed it counters at their wake, arbitration,
grant, chain, and throttle points. Passing no probe keeps the hot path
untouched (each hook is a single ``is not None`` check — the bench report's
``probe_overhead`` section quantifies it); passing a
:class:`CountingProbe` collects per-run kernel counters; passing an
:class:`NDJSONTraceProbe` additionally streams structured grant/delivery
events to a file instead of accumulating them in memory.

:class:`RunReport` bundles the kernel counters with the existing per-flow
statistics into one JSON document (schema in ``docs/OBSERVABILITY.md``) so
every run can leave a machine-readable artifact behind.
"""

from .._lazy import lazy_exports

#: Where each public name lives (loaded on first access, see
#: :mod:`repro._lazy`): the kernels import only :mod:`repro.obs.probe`,
#: so a run never loads the report writer or the trace file sink.
_EXPORTS = {
    ".probe": ("CountingProbe", "Probe"),
    ".report": ("RunReport",),
    ".trace": ("NDJSONTraceProbe",),
}
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "CountingProbe",
    "NDJSONTraceProbe",
    "Probe",
    "RunReport",
]
