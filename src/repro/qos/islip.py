"""iSLIP — iterative round-robin matching with slip (McKeown, ToN 1999).

Each iteration runs three phases over the unmatched ports:

1. **Request** — every unmatched input requests every unmatched output it
   has a non-empty VOQ for.
2. **Grant** — every requested output grants the requesting input that
   appears next at or after its *grant pointer* (rotating priority).
3. **Accept** — every input that received grants accepts the granting
   output next at or after its *accept pointer*.

The "slip" that desynchronizes the pointers — and yields 100% throughput
under uniform i.i.d. traffic with a single iteration — is the pointer
update rule: a grant pointer advances to one past the granted input, and
an accept pointer to one past the accepted output, **only when the grant
is accepted in the first iteration**. Later-iteration accepts leave every
pointer untouched, preserving the no-starvation argument of the paper
("From MWM to iSLIP", arXiv:2606.14771, recounts the lineage).

Iterations stop when an iteration produces no new grant; the default
iteration budget is ``log2(radix)``, the paper's rule of thumb for
near-maximal matchings.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set, Tuple

from ..core.matching import Matching, round_robin_next
from ..errors import ArbitrationError
from .iterative import IterativeArbiter


class ISLIPArbiter(IterativeArbiter):
    """The iSLIP scheduler for one whole switch.

    Args:
        num_inputs: switch radix.
        iterations: request/grant/accept rounds per cycle; defaults to
            ``max(1, log2(num_inputs))``.
    """

    name = "islip"

    def __init__(self, num_inputs: int, iterations: Optional[int] = None) -> None:
        super().__init__(num_inputs)
        if iterations is None:
            iterations = max(1, num_inputs.bit_length() - 1)
        if iterations < 1:
            raise ArbitrationError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        #: per-output rotating grant pointer (highest-priority input index)
        self._grant_pointers = [0] * num_inputs
        #: per-input rotating accept pointer (highest-priority output index)
        self._accept_pointers = [0] * num_inputs

    # ---------------------------------------------------------------- phases

    def _grant_phase(self, requesters: Mapping[int, int]) -> Tuple[List[int], int]:
        """Grant: the outputs offered to each input, and the request count.

        ``requesters`` maps each unmatched output to the bit mask of its
        unmatched requesting inputs; the offers come back indexed by
        input, each a bit mask of outputs (0: no offer). Pure with
        respect to shared state: reads the pointers and ``requesters``,
        mutates neither (RL013 contract — pointers move only on accepted
        grants, in :meth:`_accept_phase`).
        """
        offers = [0] * self.num_inputs
        requests_seen = 0
        pointers = self._grant_pointers
        for output, ports in requesters.items():
            requests_seen += ports.bit_count()
            offers[round_robin_next(ports, pointers[output])] |= 1 << output
        return offers, requests_seen

    def _accept_phase(
        self, offers: List[int], first_iteration: bool
    ) -> List[Tuple[int, int]]:
        """Accept one grant per input; advance pointers on iteration 1."""
        accepted: List[Tuple[int, int]] = []
        for port, outputs in enumerate(offers):
            if not outputs:
                continue
            output = round_robin_next(outputs, self._accept_pointers[port])
            accepted.append((port, output))
            if first_iteration:
                # The slip: pointers move past the match only when the
                # first iteration's grant is accepted, never on the
                # refinement iterations.
                self._grant_pointers[output] = (port + 1) % self.num_inputs
                self._accept_pointers[port] = (output + 1) % self.num_inputs
        return accepted

    # ------------------------------------------------------------------ match

    def match(
        self,
        backlog: Mapping[int, Mapping[int, int]],
        free_outputs: Sequence[int],
        now: int,
    ) -> Matching:
        # Request: each free output's requesting inputs as a bit mask,
        # built once per match; later iterations only clear the inputs
        # and drop the outputs the previous ones matched.
        requesters = dict.fromkeys(free_outputs, 0)
        for port, row in backlog.items():
            bit = 1 << port
            for output in row:
                if output in requesters:
                    requesters[output] |= bit
        requesters = {output: ports for output, ports in requesters.items() if ports}
        pairs: List[Tuple[int, int]] = []
        proposals = 0
        rounds = 0
        for iteration in range(self.iterations):
            if not requesters:
                break
            offers, requests_seen = self._grant_phase(requesters)
            rounds += 1
            proposals += requests_seen
            accepted = self._accept_phase(offers, iteration == 0)
            pairs.extend(accepted)
            unmatched = -1
            matched_outputs: Set[int] = set()
            for port, output in accepted:
                unmatched &= ~(1 << port)
                matched_outputs.add(output)
            requesters = {
                output: ports & unmatched
                for output, ports in requesters.items()
                if output not in matched_outputs and ports & unmatched
            }
        return Matching(tuple(pairs), iterations=max(rounds, 1), proposals=proposals)
