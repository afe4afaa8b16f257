"""Base class and factory plumbing for iterative VOQ matching schedulers.

The per-output arbiters in this package (:class:`~repro.qos.base.
OutputArbiter`) decide one output channel at a time. The canonical
input-queued switch schedulers — iSLIP, QPS-r, SW-QPS — instead compute a
*matching* between all free inputs and all free outputs at once, through
rounds of request/grant/accept (or propose/accept) message exchange over
the crossbar. :class:`IterativeArbiter` is their shared contract:

* one instance serves the **whole switch** (all outputs share it), built
  through :func:`shared_iterative_factory` so the standard per-output
  ``ArbiterFactory`` wiring keeps working;
* the simulator calls :meth:`match` with the VOQ backlog of every free
  input, restricted to free outputs, and applies the returned
  :class:`~repro.core.matching.Matching` as this cycle's grants;
* the per-output ``select``/``commit`` interface is explicitly refused —
  an iterative scheduler consulted per-output would double-book inputs;
* schedulers that sample (QPS-r, SW-QPS) draw through keyed hashes over
  ``(seed, cycle, round, port)`` — :meth:`bind_seed` supplies the run's
  master seed before the first cycle, and no RNG object state exists.

The RL013 lint rule ("iterative-arbiter contract") holds implementations
to the protocol's phase discipline: grant/request-phase helpers must not
mutate the shared VOQ/request state they are handed, and round-robin
pointers may only advance on accepted grants (accept/commit phases).
Matching in VOQ mode only: the event kernel raises
:class:`~repro.errors.ConfigError` when an iterative scheduler is paired
with the classic partially-queued input ports (see docs/SCHEDULERS.md).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Mapping, Optional, Sequence

from ..core.arbitration import Request
from ..core.matching import Matching
from ..errors import ArbitrationError
from .base import OutputArbiter


class IterativeArbiter(OutputArbiter):
    """A switch-wide matching scheduler over virtual output queues.

    Args:
        num_inputs: switch radix (inputs == outputs).
    """

    name = "iterative"

    def __init__(self, num_inputs: int) -> None:
        if num_inputs < 2:
            raise ArbitrationError(
                f"iterative schedulers need at least 2 ports, got {num_inputs}"
            )
        super().__init__(num_inputs)
        self._seed = 0

    # ----------------------------------------------------------- seed wiring

    def bind_seed(self, seed: int) -> None:
        """Install the run's master seed before the first cycle.

        Sampling schedulers key every draw on this seed (plus cycle,
        round, and port), so two runs with equal seeds replay identical
        matchings regardless of process fan-out. Deterministic schedulers
        (iSLIP) simply ignore it.
        """
        self._seed = seed

    # ------------------------------------------------------------- interface

    @abc.abstractmethod
    def match(
        self,
        backlog: Mapping[int, Mapping[int, int]],
        free_outputs: Sequence[int],
        now: int,
    ) -> Matching:
        """Compute one conflict-free matching for cycle ``now``.

        Args:
            backlog: for each *free* input with a request, the flits
                queued per free output — only non-empty VOQs appear.
                The simulator adds inputs in increasing order and builds
                each row in increasing output order, so samplers walk
                rows as given. The mapping is owned by the simulator and
                must not be mutated.
            free_outputs: outputs whose channels are idle this cycle, in
                increasing order.
            now: current cycle.

        Returns:
            The matched pairs plus iteration/proposal diagnostics. May be
            empty (e.g. a sliding-window scheduler whose head slot is
            stale) even when requests exist — the simulator retries next
            cycle, exactly like a declining per-output arbiter.
        """

    # ------------------------------------------- per-output interface refusal

    def select(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        """Refused: a matching scheduler cannot decide one output alone."""
        raise ArbitrationError(
            f"{self.name} is an iterative matching scheduler; the simulator "
            "must call match(), not per-output select()"
        )

    choose = select

    def commit(self, winner: Request, now: int) -> None:
        """Refused: grants are committed through :meth:`match`."""
        raise ArbitrationError(
            f"{self.name} is an iterative matching scheduler; the simulator "
            "must call match(), not per-output commit()"
        )


#: Builds a whole-switch iterative scheduler from a SwitchConfig.
IterativeMaker = Callable[[object], IterativeArbiter]


def shared_iterative_factory(maker: IterativeMaker) -> Callable[..., IterativeArbiter]:
    """Adapt a whole-switch scheduler into the per-output factory protocol.

    :class:`~repro.switch.crossbar.SwizzleSwitch` calls its arbiter
    factory once per output, in increasing order starting at output 0.
    The wrapper builds one fresh scheduler when asked for output 0 and
    hands the *same instance* to every other output of that switch, so
    round-robin pointers and window state are switch-global (as in the
    hardware) while each newly constructed switch still gets pristine
    state — no scheduler state ever leaks between simulations.
    """
    state: Dict[str, IterativeArbiter] = {}

    def factory(output: int, config: object) -> IterativeArbiter:
        if output == 0 or "scheduler" not in state:
            state["scheduler"] = maker(config)
        return state["scheduler"]

    return factory
