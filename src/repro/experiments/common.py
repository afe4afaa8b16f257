"""Shared experiment plumbing: run helpers and the standard configs.

Arbiter presets and kernel names live in :mod:`repro.experiments.presets`
and the paper-claim types in :mod:`repro.experiments.claims`; this module
is the one that imports the simulator.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union

from ..config import GLPolicerConfig, QoSConfig, SwitchConfig
from ..errors import ConfigError
from ..faults import FaultPlan
from ..obs.probe import Probe
from ..switch.crossbar import ArbiterFactory
from ..switch.simulator import Simulation, SimulationResult
from ..traffic.flows import Workload
from ..types import CounterMode
from .presets import KERNELS, make_arbiter_factory


class SimulationKernel(Protocol):
    """What every backend exposes: one run() producing a result."""

    def run(self, horizon: int) -> SimulationResult:
        """Simulate ``horizon`` cycles and return the collected results."""


def make_simulation(
    kernel: str,
    config: SwitchConfig,
    workload: Workload,
    **kwargs: object,
) -> SimulationKernel:
    """Construct the named kernel's simulation (event/flit/array).

    The flit and array backends are imported lazily so the default path
    pays nothing for them.

    Raises:
        ConfigError: for unknown kernel names, listing the valid ones.
    """
    if kernel == "event":
        return Simulation(config, workload, **kwargs)  # type: ignore[arg-type]
    if kernel == "flit":
        from ..switch.flit_kernel import FlitLevelSimulation

        return FlitLevelSimulation(config, workload, **kwargs)  # type: ignore[arg-type]
    if kernel == "array":
        from ..switch.array_kernel import ArraySimulation

        return ArraySimulation(config, workload, **kwargs)  # type: ignore[arg-type]
    raise ConfigError(f"unknown kernel {kernel!r}; valid: {list(KERNELS)}")


def run_simulation(
    config: SwitchConfig,
    workload: Workload,
    arbiter: Union[str, ArbiterFactory] = "three-class",
    horizon: int = 50_000,
    seed: int = 0,
    warmup_cycles: Optional[int] = None,
    collect_events: bool = False,
    probe: Optional[Probe] = None,
    fault_plan: Optional[FaultPlan] = None,
    kernel: str = "event",
) -> SimulationResult:
    """Build and run one simulation (the single entry point experiments use)."""
    sim = make_simulation(
        kernel,
        config,
        workload,
        arbiter_factory=make_arbiter_factory(arbiter),
        seed=seed,
        warmup_cycles=warmup_cycles,
        collect_events=collect_events,
        probe=probe,
        fault_plan=fault_plan,
    )
    return sim.run(horizon)


def voq_config(
    radix: int = 8,
    buffer_flits: int = 32,
    arbitration_cycles: int = 0,
) -> SwitchConfig:
    """A full-VOQ input-queued switch for the scheduler tournament.

    Every class gets per-output queues of ``buffer_flits`` flits, and the
    arbitration bubble defaults to zero so iterative schedulers can reach
    their papers' 100%-of-channel uniform throughput (with the Swizzle
    Switch's 1-cycle bubble, ``L/(L+1)`` caps everyone at 0.89 for 8-flit
    packets and the comparison flattens). GL reservation is disabled: the
    tournament drives unreserved traffic so head-of-line blocking — the
    thing VOQ removes — is what the classic-mode baseline exposes.
    """
    return SwitchConfig(
        radix=radix,
        voq=True,
        arbitration_cycles=arbitration_cycles,
        be_buffer_flits=buffer_flits,
        gb_buffer_flits=buffer_flits,
        gl_buffer_flits=buffer_flits,
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )


#: Saturated single-output throughput for the paper's 8-flit packets with
#: ``gb_only_config``'s one-cycle arbitration bubble: ``L / (L + 1)``.
CEILING = 8 / 9


def gb_only_config(
    radix: int = 8,
    channel_bits: int = 128,
    sig_bits: int = 4,
    frac_bits: int = 8,
    counter_mode: CounterMode = CounterMode.SUBTRACT,
    gb_buffer_flits: int = 16,
) -> SwitchConfig:
    """A Fig. 4/5-style configuration: GB traffic only, no GL reservation."""
    return SwitchConfig(
        radix=radix,
        channel_bits=channel_bits,
        gb_buffer_flits=gb_buffer_flits,
        qos=QoSConfig(sig_bits=sig_bits, frac_bits=frac_bits, counter_mode=counter_mode),
        gl_policer=GLPolicerConfig(reserved_rate=0.0),
    )
