"""Common interface for output-channel arbiters."""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence

from ..core.arbitration import Request
from ..core.lrg import LRGState
from ..errors import ArbitrationError, ConfigError


class OutputArbiter(abc.ABC):
    """Arbitration policy for a single output channel.

    The interface is split into a selection phase and an explicit commit
    phase. The simulator calls :meth:`select` with the head-of-line
    requests of all inputs that are free to transmit; if it can honour the
    decision (the winning input is still free, the channel is idle) it calls
    :meth:`commit`, which is where state such as LRG order and auxVC
    counters advances. Tests may call :meth:`arbitrate` to do both at once.

    The selection contract: :meth:`select` advances no grant state. It
    may bring time-driven state up to ``now`` (SSVC's real-time counter
    decay, the GSF and preemptive-VC frame rollover, CCSP's credit
    accrual), which any reader at ``now`` would see anyway, so repeating
    it at the same ``now`` without a commit returns the same winner. Four
    policies do change state in :meth:`choose`, before any commit:

    * :class:`~repro.qos.weighted_round_robin.WRRArbiter` forfeits an idle
      slot owner's credits, moves its cursor and counts wasted slots;
    * :class:`~repro.qos.deficit_round_robin.DWRRArbiter` charges the
      quantum and moves its cursor;
    * :class:`~repro.qos.tdm.TDMArbiter` counts wasted slots;
    * :class:`~repro.qos.three_class.ThreeClassArbiter` records a GL
      throttle in its policer for each demoted GL request (once per cycle
      and input).

    The kernels commit every non-``None`` winner in the cycle it was
    chosen, so these never shift a schedule; a caller that selects
    without committing must not rely on them being undone.

    A policy implements :meth:`choose` and :meth:`commit`; :meth:`select`
    owns the request prologue (no requests, no winner; duplicate or
    out-of-range ports are an error). The helpers below hold the plumbing policies share: the
    port and rate checks of ``register_flow`` adapters, the LRG pick, and
    the lowest-key-wins rule of the clock-based policies.

    Class attribute ``arbitration_cycles`` lets a policy override the
    switch-level re-arbitration latency: the Swizzle Switch arbitrates in a
    single cycle (the paper's contribution includes fitting SSVC into that
    cycle), while the DAC'12 fixed-priority baseline needs two.
    """

    #: Override of SwitchConfig.arbitration_cycles; ``None`` keeps the
    #: switch default.
    arbitration_cycles: Optional[int] = None

    #: Human-readable policy name used in reports.
    name: str = "arbiter"

    def __init__(self, num_inputs: int, lrg: Optional[LRGState] = None) -> None:
        if num_inputs < 1:
            raise ConfigError(f"num_inputs must be >= 1, got {num_inputs}")
        self.num_inputs = num_inputs
        #: The output's LRG order (the hardware keeps one per output);
        #: arbiters stacked on one output share it by passing it in.
        self.lrg = lrg if lrg is not None else LRGState(num_inputs)
        if self.lrg.n != num_inputs:
            raise ConfigError(
                f"LRG state sized for {self.lrg.n} inputs, switch has {num_inputs}"
            )

    def select(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        """Choose a winner among ``requests`` without advancing grant state.

        Returns ``None`` when nobody requests, or when the policy declines
        to grant anyone this cycle (e.g. TDM with an idle slot owner) even
        though requests are pending — this is how non-work-conserving
        policies waste slots.

        Raises:
            ArbitrationError: if two requests come from one input (an
                input has one head of line), or a port is outside the
                radix.
        """
        if not requests:
            return None
        ports = {r.input_port for r in requests}
        if len(ports) != len(requests):
            raise ArbitrationError(
                f"duplicate requesting ports: {sorted(r.input_port for r in requests)}"
            )
        # Request already rejects negative ports.
        if max(ports) >= self.num_inputs:
            raise ArbitrationError(
                f"requesting port {max(ports)} out of range [0, {self.num_inputs})"
            )
        return self.choose(requests, now)

    @abc.abstractmethod
    def choose(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        """The policy's decision over non-empty, duplicate-free ``requests``."""

    @abc.abstractmethod
    def commit(self, winner: Request, now: int) -> None:
        """Commit a grant previously returned by :meth:`select`."""

    def arbitrate(self, requests: Sequence[Request], now: int) -> Optional[Request]:
        """Convenience: select and, if someone won, commit."""
        winner = self.select(requests, now)
        if winner is not None:
            self.commit(winner, now)
        return winner

    # ------------------------------------------------------------- utilities

    def _check_port(self, input_port: int) -> None:
        """Reject an input index outside the switch radix."""
        if not 0 <= input_port < self.num_inputs:
            raise ConfigError(
                f"input_port {input_port} out of range [0, {self.num_inputs})"
            )

    @staticmethod
    def _check_rate(rate: float) -> None:
        """Reject a reserved rate outside (0, 1] of the channel."""
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"rate must be in (0, 1], got {rate}")

    @staticmethod
    def _request_at(requests: Sequence[Request], port: int) -> Request:
        """The request of input ``port`` (which must be among ``requests``)."""
        return next(r for r in requests if r.input_port == port)

    def _lrg_pick(self, pool: Sequence[Request]) -> Request:
        """The least recently granted request of ``pool``.

        ``pool`` is a subset of requests that passed :meth:`select`'s
        prologue, so its ports are distinct and in range.
        """
        rank = self.lrg.ranks
        return min(pool, key=lambda r: rank[r.input_port])

    def _lowest(
        self, requests: Sequence[Request], key: Callable[[Request], float]
    ) -> Request:
        """The request with the lowest ``key``; LRG breaks ties.

        ``key`` is evaluated once per request, in request order.
        """
        keys = [key(r) for r in requests]
        best = min(keys)
        tied = [r for r, k in zip(requests, keys) if k == best]
        return tied[0] if len(tied) == 1 else self._lrg_pick(tied)
