"""Named arbitration policies and simulation backends.

``repro-exp`` offers these names as choices, so this module imports no
arbiter and no kernel: each preset imports its arbiter module on its
first build, and a run loads only the arbiters it builds.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Union

from ..config import SwitchConfig
from ..errors import ConfigError
from ..types import CounterMode

if TYPE_CHECKING:
    from ..qos.base import OutputArbiter
    from ..switch.crossbar import ArbiterFactory


def _preset(
    module: str, build: Callable[[Any, SwitchConfig], "OutputArbiter"]
) -> "ArbiterFactory":
    """A factory calling ``build(repro.qos.<module>, config)``."""

    def factory(output: int, config: SwitchConfig) -> "OutputArbiter":
        return build(import_module(f"repro.qos.{module}"), config)

    return factory


def _ssvc(mode: Optional[CounterMode]) -> "ArbiterFactory":
    def build(m: Any, config: SwitchConfig) -> "OutputArbiter":
        qos = config.qos if mode is None else replace(config.qos, counter_mode=mode)
        return m.SSVCArbiter(config.radix, qos=qos)

    return _preset("ssvc_arbiter", build)


def _matcher(module: str, name: str) -> "ArbiterFactory":
    """One whole-switch scheduler per switch, handed to all its outputs
    by :func:`~repro.qos.iterative.shared_iterative_factory`."""
    shared: "List[ArbiterFactory]" = []

    def factory(output: int, config: SwitchConfig) -> "OutputArbiter":
        if not shared:
            from ..qos.iterative import shared_iterative_factory

            cls = getattr(import_module(f"repro.qos.{module}"), name)
            shared.append(shared_iterative_factory(lambda c: cls(c.radix)))
        return shared[0](output, config)

    return factory


#: Named arbitration policies usable from the CLI and the benches.
ARBITER_PRESETS: "dict[str, ArbiterFactory]" = {
    "lrg": _preset("lrg_arbiter", lambda m, c: m.LRGArbiter(c.radix)),
    "virtual-clock": _preset("virtual_clock_arbiter", lambda m, c: m.VirtualClockArbiter(c.radix)),
    "virtual-clock-arrival": _preset(
        "arrival_stamped_vc", lambda m, c: m.ArrivalStampedVCArbiter(c.radix)
    ),
    "preemptive-vc": _preset("preemptive_vc", lambda m, c: m.PreemptiveVCArbiter(c.radix)),
    "ccsp": _preset("ccsp", lambda m, c: m.CCSPArbiter(c.radix)),
    "ssvc": _ssvc(None),
    "ssvc-subtract": _ssvc(CounterMode.SUBTRACT),
    "ssvc-halve": _ssvc(CounterMode.HALVE),
    "ssvc-reset": _ssvc(CounterMode.RESET),
    "three-class": _preset(
        "three_class",
        lambda m, c: m.ThreeClassArbiter(c.radix, qos=c.qos, gl_policer_config=c.gl_policer),
    ),
    "fixed-priority": _preset("fixed_priority", lambda m, c: m.FixedPriorityArbiter(c.radix)),
    "wrr": _preset(
        "weighted_round_robin", lambda m, c: m.WRRArbiter(c.radix, work_conserving=True)
    ),
    "wrr-strict": _preset(
        "weighted_round_robin", lambda m, c: m.WRRArbiter(c.radix, work_conserving=False)
    ),
    "dwrr": _preset("deficit_round_robin", lambda m, c: m.DWRRArbiter(c.radix)),
    "wfq": _preset("fair_queuing", lambda m, c: m.WFQArbiter(c.radix)),
    "tdm": _preset("tdm", lambda m, c: m.TDMArbiter(c.radix)),
    "gsf": _preset("gsf", lambda m, c: m.GSFArbiter(c.radix)),
    # Iterative VOQ matching schedulers (event kernel + SwitchConfig.voq
    # only; see docs/SCHEDULERS.md). One instance arbitrates the whole
    # switch, rebuilt per simulation by shared_iterative_factory.
    "islip": _matcher("islip", "ISLIPArbiter"),
    "qps-r": _matcher("qps", "QPSRArbiter"),
    "sw-qps": _matcher("sw_qps", "SWQPSArbiter"),
}


def make_arbiter_factory(preset: Union[str, "ArbiterFactory"]) -> "ArbiterFactory":
    """Resolve a preset name (or pass a factory through).

    Raises:
        ConfigError: for unknown preset names, listing the valid ones.
    """
    if callable(preset):
        return preset
    try:
        return ARBITER_PRESETS[preset]
    except KeyError:
        raise ConfigError(
            f"unknown arbiter preset {preset!r}; valid: {sorted(ARBITER_PRESETS)}"
        ) from None


#: Simulation backends selectable by name (see docs/KERNELS.md).
KERNELS = ("event", "flit", "array")
