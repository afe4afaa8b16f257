"""SW-QPS — sliding-window queue-proportional sampling (arXiv:2010.08620).

Where QPS-r restarts its matching from scratch every cycle, SW-QPS keeps
a **window** of ``T`` matchings-in-progress and turns switching into
batch processing with no batching delay:

* every cycle, each input queue-proportionally samples one output (a
  single QPS proposal, same O(1) work as QPS-1) — a sample the window
  already holds for that input is re-rolled once against its not-yet-
  cached VOQs, so no proposal is knowingly wasted;
* the proposal is accepted into the **earliest** window slot where both
  the input and the sampled output are still unmatched (first-fit
  accept), so one proposal can repair any of the ``T`` pending matchings;
* the oldest slot departs each scheduling step, and a fresh empty slot
  joins the tail.

Two adaptations bridge the paper's cell switch (every port frees every
slot) to this packet-granular kernel (ports free asynchronously, and the
sparse event kernel only calls the scheduler when something can depart):

* each ``match`` call replays one proposal round per *elapsed cycle*
  since the previous call, keyed on the skipped cycle numbers, so the
  per-cycle O(1) proposal budget is paid in full;
* the departing matching is assembled from the whole window — heaviest
  current VOQ first — over the pairs executable right now; departed
  pairs leave their slots, dead leftovers (drained VOQ) are dropped, and
  still-wanted leftovers (ports mid-transmission) re-enter at the tail.

Because the window retains every refinement round, SW-QPS matches or
beats what QPS-r computes from scratch with small ``r`` — the paper's
headline claim, checked by the tournament experiment's
``sw-qps >= qps-r`` saturation-throughput gate.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.matching import Matching, draw_prefix, pick_proportional, prefixed_draw
from ..errors import ArbitrationError
from .iterative import IterativeArbiter


class _WindowSlot:
    """One matching under construction: input->output plus the reverse."""

    def __init__(self) -> None:
        self.by_input: Dict[int, int] = {}
        self.by_output: Dict[int, int] = {}

    def accepts(self, port: int, output: int) -> bool:
        return port not in self.by_input and output not in self.by_output

    def add(self, port: int, output: int) -> None:
        self.by_input[port] = output
        self.by_output[output] = port

    def remove(self, port: int) -> None:
        output = self.by_input.pop(port)
        del self.by_output[output]


class SWQPSArbiter(IterativeArbiter):
    """The SW-QPS scheduler for one whole switch.

    Args:
        num_inputs: switch radix.
        window: matchings kept in flight (the ``T`` above); defaults to
            the radix — every slot then sees up to ``radix`` proposals
            before departing, enough to approach maximal matchings.
    """

    name = "sw-qps"

    def __init__(self, num_inputs: int, window: Optional[int] = None) -> None:
        super().__init__(num_inputs)
        if window is None:
            window = num_inputs
        if window < 1:
            raise ArbitrationError(f"window must be >= 1, got {window}")
        self.window = window
        self._slots: Deque[_WindowSlot] = deque(
            _WindowSlot() for _ in range(window)
        )
        # Cycle of the previous match() call: the event kernel skips
        # cycles where nothing can depart, so each call replays the
        # skipped cycles' proposal rounds (one per cycle, as in the
        # paper's per-cell loop) to keep the O(1)-per-cycle budget whole.
        self._last_call = -1

    # ---------------------------------------------------------------- phases

    def _propose_phase(
        self,
        rows: Sequence[Tuple[int, Mapping[int, int]]],
        now: int,
        cached: Mapping[int, Set[int]],
    ) -> List[Tuple[int, int]]:
        """One QPS proposal per free input: [(input, sampled output)].

        ``rows`` holds each free input's VOQ weights, inputs and outputs
        in increasing order. A sample that duplicates a pair the window
        already holds for this input would be pure waste, so it is
        re-rolled once against the not-yet-cached VOQs (a second keyed
        draw — still O(1) per port). Proposals are ordered heaviest-VOQ
        first (ties to the lowest input), so window acceptance — like
        QPS's own accept phase — resolves same-output contention in
        favour of the longest queue.

        Pure with respect to shared state (RL013): samples from the
        caller's rows and reads the cached-pair index without mutating
        either — placement happens in :meth:`_accept_into_window`.
        """
        weighted: List[Tuple[int, int, int]] = []
        prefix = draw_prefix(self._seed, now, 0)
        reroll = draw_prefix(self._seed, now, 1)
        for port, weights in rows:
            target = pick_proportional(weights, prefixed_draw(prefix, port))
            held = cached.get(port, ())
            if target in held:
                fresh = {o: w for o, w in weights.items() if o not in held}
                if not fresh:
                    continue  # every requested output is already cached
                target = pick_proportional(fresh, prefixed_draw(reroll, port))
            weighted.append((-weights[target], port, target))
        weighted.sort()
        return [(port, target) for _, port, target in weighted]

    def _accept_into_window(self, proposals: List[Tuple[int, int]]) -> None:
        """First-fit accept: earliest slot where both ports are free."""
        for port, output in proposals:
            for slot in self._slots:
                if slot.accepts(port, output):
                    slot.add(port, output)
                    break

    # ------------------------------------------------------------------ match

    def match(
        self,
        backlog: Mapping[int, Mapping[int, int]],
        free_outputs: Sequence[int],
        now: int,
    ) -> Matching:
        # One proposal round per cycle, as in the paper — including the
        # cycles the sparse kernel skipped since the last call (every port
        # was mid-transmission then, but the paper's inputs still propose
        # each cell). Rounds beyond `window` are moot: their acceptances
        # would already have slid out of the window.
        elapsed = min(self.window, max(1, now - self._last_call))
        count = 0
        rows = [(port, backlog[port]) for port in sorted(backlog) if backlog[port]]
        cached: Dict[int, Set[int]] = {}
        for slot in self._slots:
            for held_port, held_output in slot.by_input.items():
                cached.setdefault(held_port, set()).add(held_output)
        for cycle in range(now - elapsed + 1, now + 1):
            proposals = self._propose_phase(rows, cycle, cached)
            self._accept_into_window(proposals)
            for port, output in proposals:
                cached.setdefault(port, set()).add(output)
            count += len(proposals)
        self._last_call = now
        # Departure, adapted to a packet switch: the paper's cell switch
        # frees every port each slot, so the popped head is always
        # executable. Here ports free asynchronously, so the whole window
        # acts as the candidate pool and the departing matching is
        # assembled greedily by *current* VOQ backlog (heaviest first,
        # ties to the oldest slot then lowest input) over every pair that
        # is executable now. Re-weighing at departure keeps the
        # queue-proportional bias honest — a pair accepted with a deep
        # VOQ `window` calls ago must not outrank a now-deeper queue.
        usable_outputs = set(free_outputs)
        candidates: List[Tuple[int, int, int, int]] = []
        for age, slot in enumerate(self._slots):
            for port, output in slot.by_input.items():
                if output in usable_outputs and output in backlog.get(port, {}):
                    candidates.append(
                        (-backlog[port][output], age, port, output)
                    )
        candidates.sort()
        pairs: List[Tuple[int, int]] = []
        matched_inputs: Set[int] = set()
        matched_outputs: Set[int] = set()
        for _, age, port, output in candidates:
            if port in matched_inputs or output in matched_outputs:
                continue
            pairs.append((port, output))
            matched_inputs.add(port)
            matched_outputs.add(output)
            self._slots[age].remove(port)
        pairs.sort()
        head = self._slots.popleft()
        self._slots.append(_WindowSlot())
        tail = self._slots[-1]
        for port, output in head.by_input.items():
            # Ungranted head leftovers: a pair whose VOQ drained while it
            # waited is dead (the cost of deciding `window` calls early);
            # a pair whose port is mid-transmission is still wanted, so it
            # re-enters at the *tail* — young enough that it cannot squat
            # in front of fresh executable proposals, while promotion can
            # still grant it the moment its ports free up.
            if port in backlog and output not in backlog[port]:
                continue
            if tail.accepts(port, output):
                tail.add(port, output)
        return Matching(tuple(pairs), iterations=1, proposals=count)
