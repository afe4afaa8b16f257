"""SSVC — the Swizzle Switch Virtual Clock core (paper Section 3.1).

The paper integrates the Virtual Clock algorithm into the Swizzle Switch's
single-cycle inhibit-based arbitration. The key hardware constraint is that
auxVC counters cannot be compared at full precision on the bus: only their
most-significant bits participate, quantized into a thermometer code whose
level selects an arbitration lane. Ties within one coarse level are broken by
least-recently-granted (LRG) arbitration. This coarsening is *the* reason
SSVC improves latency for low-rate flows relative to the original Virtual
Clock (paper Section 4.3, Fig. 5).

Because the counters are finite, three management policies keep them in
range (:class:`repro.types.CounterMode`):

* ``SUBTRACT`` — a real-time counter with the granularity of the auxVC LSBs
  runs alongside; each time it saturates (every *quantum* cycles) every
  flow's most-significant value drops by one, i.e. all thermometer codes
  shift down one lane. Combined with the ``max(auxVC, real_time)`` floor,
  the stored value is the flow's *lead over real time*.
* ``HALVE`` — when any counter saturates, every counter divides by two.
* ``RESET`` — when any counter saturates, every counter clears to zero.

This module is deliberately independent of the cycle-level simulator so it
can be driven directly by unit/property tests and by the wire-level circuit
model (which consumes :meth:`SSVCCore.thermometer`).

Counter accounting is exact: values are stored as integers in *subtick*
units (cycles scaled by the largest power-of-two denominator among the
registered Vticks), so long-horizon accumulation cannot drift the way the
former float path did (which flipped coarse thermometer levels — see
``tests/test_vtick_drift.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import QoSConfig
from ..errors import ArbitrationError, ConfigError
from ..types import CounterMode
from .lrg import LRGState
from .thermometer import ThermometerCode
from .virtual_clock import compute_vtick


@dataclass
class _FlowState:
    """Per-(input, output) crosspoint QoS state.

    ``value_num`` is the auxVC register content in integer *subticks* —
    cycles scaled by the core's ``_scale`` — so accumulation is exact. Its
    meaning depends on the counter mode: in SUBTRACT mode it is the flow's
    lead over the real-time window (decays by one quantum per quantum of
    real time); in HALVE/RESET modes it is an accumulated relative value.
    ``vtick_num`` is the flow's Vtick in the same subtick units.
    """

    vtick: float
    vtick_num: int
    reserved_rate: float
    packet_flits: int
    value_num: int = 0
    epoch: int = 0
    transmit_count: int = field(default=0, repr=False)


@dataclass(frozen=True)
class SSVCState:
    """Read-only snapshot of a core's integer counter state.

    Produced by :meth:`SSVCCore.export_state` for array-kernel
    initialization: all quantities are in the core's subtick units, so a
    vectorized backend can reproduce the exact integer arithmetic without
    reaching into private attributes. ``flows`` maps input port to
    ``(vtick_num, value_num, epoch)``.
    """

    scale: int
    quantum_num: int
    saturation_num: int
    flows: Dict[int, Tuple[int, int, int]]


class SSVCCore:
    """Coarse-grained Virtual Clock state and selection for one output.

    Args:
        qos: quantization and counter-management parameters.
        lrg: the output's LRG state used for tie-breaking. SSVC replicates
            the LRG logic at each crosspoint in hardware; behaviorally a
            single shared state per output is equivalent. If ``None`` a
            fresh state over ``num_inputs`` inputs is created.
        num_inputs: switch radix.

    The core is *selection + explicit commit*: :meth:`select` changes no
    counter value and no LRG order that :meth:`snapshot` or
    :attr:`lrg` would report (it only applies the real-time decay due by
    ``now``, as every reader at ``now`` does), and :meth:`commit` performs
    the grant-time updates. This split lets the simulator abandon a
    tentative decision (e.g. when a GL request pre-empts the GB plane)
    without corrupting state, and makes the class easy to test.
    """

    def __init__(
        self,
        qos: QoSConfig,
        num_inputs: int,
        lrg: Optional[LRGState] = None,
    ) -> None:
        if num_inputs < 1:
            raise ConfigError(f"num_inputs must be >= 1, got {num_inputs}")
        self.qos = qos
        self.num_inputs = num_inputs
        self.lrg = lrg if lrg is not None else LRGState(num_inputs)
        if self.lrg.n != num_inputs:
            raise ConfigError(
                f"LRG state sized for {self.lrg.n} inputs, switch has {num_inputs}"
            )
        self._flows: Dict[int, _FlowState] = {}
        # Exact accounting: counters are integers in units of 1/_scale
        # cycles. Every float Vtick has a power-of-two denominator, so the
        # running maximum of those denominators makes all registered
        # Vticks exact integers — no float accumulation drift (the float
        # path flipped coarse levels; see tests/test_vtick_drift.py).
        self._scale = 1
        self._quantum_num = qos.quantum
        self._saturation_num = qos.saturation
        # QoSConfig is frozen: read its derived values once, not per grant.
        # _quantum is in cycles (the real-time window); _quantum_num is the
        # same span in subticks and grows with _scale.
        self._quantum = qos.quantum
        self._top_level = qos.levels - 1
        self._mode = qos.counter_mode
        self._decays = qos.counter_mode is CounterMode.SUBTRACT
        # Set when a bit-flip leaves a counter at saturation, so the next
        # commit scans every flow instead of the winner alone. (A flip
        # stays inside the register, so it reaches saturation only from a
        # counter already clamped there; the flag keeps the winner-only
        # check exact without relying on that.)
        self._flipped_to_saturation = False
        #: statistics exposed for tests and the experiment harness
        self.halve_events = 0
        self.reset_events = 0
        self.window_shifts = 0

    # ---------------------------------------------------------- registration

    def register_flow(self, input_port: int, reserved_rate: float, packet_flits: int) -> float:
        """Configure the crosspoint for a GB flow and return its Vtick.

        Each crosspoint serves one flow ``(In_i, Out_o)`` (paper Section
        3.1), so re-registering an input overwrites its previous
        reservation.
        """
        if not 0 <= input_port < self.num_inputs:
            raise ConfigError(
                f"input_port {input_port} out of range [0, {self.num_inputs})"
            )
        vtick = compute_vtick(reserved_rate, packet_flits)
        exact = Fraction(vtick)  # exact rational of the float; dyadic
        if exact.denominator > self._scale:
            self._rescale(exact.denominator)
        self._flows[input_port] = _FlowState(
            vtick=vtick,
            vtick_num=exact.numerator * (self._scale // exact.denominator),
            reserved_rate=reserved_rate,
            packet_flits=packet_flits,
        )
        return vtick

    def _rescale(self, new_scale: int) -> None:
        """Grow the subtick denominator to admit a finer Vtick."""
        factor = new_scale // self._scale
        self._scale = new_scale
        self._quantum_num *= factor
        self._saturation_num *= factor
        for flow in self._flows.values():
            flow.value_num *= factor
            flow.vtick_num *= factor

    def is_registered(self, input_port: int) -> bool:
        """True when the input holds a GB reservation at this output."""
        return input_port in self._flows

    @property
    def registered_inputs(self) -> List[int]:
        """Inputs with GB reservations, ascending."""
        return sorted(self._flows)

    # -------------------------------------------------------------- counters

    def _epoch(self, now: int) -> int:
        """Real-time window index at ``now``; -1 when counters never decay.

        Every flow's ``epoch`` is >= 0, so -1 makes :meth:`_decay` a no-op
        in HALVE and RESET modes.
        """
        return now // self._quantum if self._decays else -1

    def _decay(self, flow: _FlowState, epoch: int) -> None:
        """Apply the lazy real-time decay due by window ``epoch``.

        Callers test ``flow.epoch < epoch`` first (the rare case), so the
        hot paths skip the call entirely.
        """
        shifts = epoch - flow.epoch
        value = flow.value_num - shifts * self._quantum_num
        flow.value_num = value if value > 0 else 0
        self.window_shifts += shifts
        flow.epoch = epoch

    def _sync(self, flow: _FlowState, now: int) -> None:
        """Bring ``flow`` up to date at cycle ``now``."""
        epoch = self._epoch(now)
        if flow.epoch < epoch:
            self._decay(flow, epoch)

    def counter_value(self, input_port: int, now: int) -> float:
        """Current auxVC register content (relative cycles) for a flow."""
        flow = self._flow(input_port)
        self._sync(flow, now)
        return flow.value_num / self._scale

    def counter_value_exact(self, input_port: int, now: int) -> Fraction:
        """Exact auxVC register content in cycles (for property tests)."""
        flow = self._flow(input_port)
        self._sync(flow, now)
        return Fraction(flow.value_num, self._scale)

    def level(self, input_port: int, now: int) -> int:
        """Coarse priority level of the flow at ``now`` (0 = highest)."""
        flow = self._flow(input_port)
        self._sync(flow, now)
        return min(flow.value_num // self._quantum_num, self._top_level)

    def thermometer(self, input_port: int, now: int) -> ThermometerCode:
        """Thermometer-code register content for the wire-level model."""
        return ThermometerCode(positions=self.qos.levels, level=self.level(input_port, now))

    def vtick(self, input_port: int) -> float:
        """The flow's configured Vtick in cycles per packet."""
        return self._flow(input_port).vtick

    # --------------------------------------------------------- select/commit

    def select(self, candidates: Iterable[int], now: int) -> int:
        """Pick the winner among requesting inputs (no grant-state change).

        The SSVC decision (paper Section 3.1): the smallest thermometer
        level wins outright; ties within a level are broken by LRG.
        """
        # One pass, keeping the running best level and its ties in
        # candidate order; the epoch is computed once and decay applied
        # inline (this runs once per arbitration, the simulator's hottest
        # call).
        quantum_num = self._quantum_num
        top_level = self._top_level
        flows = self._flows
        epoch = self._epoch(now)
        best = -1
        tied: List[int] = []
        for i in candidates:
            try:
                flow = flows[i]
            except KeyError:
                raise ArbitrationError(
                    f"input {i} has no GB reservation at this output"
                ) from None
            if flow.epoch < epoch:
                self._decay(flow, epoch)
            level = flow.value_num // quantum_num
            if level > top_level:
                level = top_level
            if level == best:
                tied.append(i)
            elif best < 0 or level < best:
                best = level
                tied = [i]
        if not tied:
            raise ArbitrationError("SSVC select requires at least one candidate")
        if len(tied) == 1:
            return tied[0]
        # Registered inputs are in range; only a repeat can be invalid.
        if len(set(tied)) != len(tied):
            raise ArbitrationError(f"duplicate requesters: {tied}")
        return self.lrg.pick(tied)

    def commit(self, winner: int, now: int) -> None:
        """Apply grant-time updates for ``winner`` at cycle ``now``.

        Advances the winner's auxVC by its Vtick (with the anti-burst floor
        already implied by the non-negative relative representation),
        demotes it in LRG, and runs the configured counter-management
        policy if the counter saturated.
        """
        flow = self._flow(winner)
        epoch = self._epoch(now)
        if flow.epoch < epoch:
            self._decay(flow, epoch)
        flow.value_num += flow.vtick_num
        flow.transmit_count += 1
        self.lrg.grant(winner)
        # Only the winner's counter grew, so only it can have crossed
        # saturation: the last management pass left every other counter
        # below it (HALVE, RESET) or at most at it (SUBTRACT, where the
        # pass only clamps). A bit-flip that reached it since forces a pass.
        if flow.value_num >= self._saturation_num or self._flipped_to_saturation:
            self._manage_saturation()

    # ------------------------------------------------------- fault injection

    def inject_counter_bitflip(self, input_port: int, bit: int, now: int) -> None:
        """Flip bit ``bit`` of the flow's coarse cycle count (fault model).

        Models a transient upset of the auxVC/thermometer register: the
        integer-cycle part of the counter has one bit XORed, clamped to the
        register's saturation range. Used only by
        :mod:`repro.faults`; never called on the healthy path.
        """
        if bit < 0 or bit >= self.qos.counter_bits:
            raise ConfigError(
                f"bit {bit} outside the {self.qos.counter_bits}-bit register"
            )
        flow = self._flow(input_port)
        self._sync(flow, now)
        cycles = flow.value_num // self._scale
        flow.value_num += ((cycles ^ (1 << bit)) - cycles) * self._scale
        if flow.value_num >= self._saturation_num:
            flow.value_num = self._saturation_num
            self._flipped_to_saturation = True

    # ----------------------------------------------------- counter management

    def _manage_saturation(self) -> None:
        saturation_num = self._saturation_num
        mode = self._mode
        self._flipped_to_saturation = False
        # The hardware register saturates: it can never hold more than the
        # saturation value, in any mode, so overflow beyond the window is
        # forgotten before the management policy runs.
        saturated = False
        for flow in self._flows.values():
            if flow.value_num >= saturation_num:
                flow.value_num = saturation_num
                saturated = True
        if mode is CounterMode.SUBTRACT or not saturated:
            # SUBTRACT relies on real-time decay to pull values back down.
            return
        if mode is CounterMode.HALVE:
            # Hardware right-shift: floors to the subtick grid (error
            # < 1 subtick, never accumulated — the register stays exact).
            for flow in self._flows.values():
                flow.value_num //= 2
            self.halve_events += 1
        elif mode is CounterMode.RESET:
            for flow in self._flows.values():
                flow.value_num = 0
            self.reset_events += 1

    # ---------------------------------------------------------------- helpers

    def _flow(self, input_port: int) -> _FlowState:
        try:
            return self._flows[input_port]
        except KeyError:
            raise ArbitrationError(
                f"input {input_port} has no GB reservation at this output"
            ) from None

    def snapshot(self, now: int) -> Dict[int, float]:
        """Counter values of all registered flows (for tests/reports)."""
        return {i: self.counter_value(i, now) for i in sorted(self._flows)}

    def export_state(self) -> SSVCState:
        """Integer counter state for vectorized backends (read-only).

        The array kernel seeds its int64 matrices from this snapshot and
        thereafter performs the same subtick arithmetic as this core —
        parity tests compare the resulting grant streams bit for bit.
        """
        return SSVCState(
            scale=self._scale,
            quantum_num=self._quantum_num,
            saturation_num=self._saturation_num,
            flows={
                i: (flow.vtick_num, flow.value_num, flow.epoch)
                for i, flow in self._flows.items()
            },
        )
