"""QPS-r — queue-proportional sampling with r acceptance rounds.

QPS-r (arXiv:1905.05392; retrieved via the SW-QPS paper's lineage) runs
``r`` propose/accept rounds per cycle:

1. **Propose** — every unmatched input samples *one* unmatched output
   with probability proportional to the VOQ backlog it holds for it, and
   proposes, attaching that backlog as the proposal's weight.
2. **Accept** — every output that received proposals accepts the one
   with the largest weight (longest VOQ first — the greedy step that
   gives QPS its maximal-weight flavor); ties break to the lowest input
   index, which is deterministic and replayable.

With ``r = 1`` the scheduler has O(1) per-port complexity and already
sustains high throughput; ``r = 2`` (the default here, the paper's
recommended configuration) re-runs the exchange among still-unmatched
ports to fill most of the remaining holes.

Sampling draws are keyed blake2b hashes of ``(seed, cycle, round, input)``
(:func:`repro.core.matching.keyed_draw`; the ``(seed, cycle, round)``
prefix is hashed once per round) — no RNG object, so matchings replay
bit-identically at any sweep job count.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.matching import Matching, draw_prefix, pick_proportional, prefixed_draw
from ..errors import ArbitrationError
from .iterative import IterativeArbiter


class QPSRArbiter(IterativeArbiter):
    """The QPS-r scheduler for one whole switch.

    Args:
        num_inputs: switch radix.
        rounds: propose/accept rounds per cycle (the ``r`` in QPS-r).
    """

    name = "qps-r"

    def __init__(self, num_inputs: int, rounds: int = 2) -> None:
        super().__init__(num_inputs)
        if rounds < 1:
            raise ArbitrationError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds

    # ---------------------------------------------------------------- phases

    def _propose_phase(
        self,
        rows: Sequence[Tuple[int, Mapping[int, int]]],
        now: int,
        round_index: int,
    ) -> Dict[int, Tuple[int, int]]:
        """Queue-proportional proposals, reduced to each output's best.

        ``rows`` holds every unmatched input's VOQ weights over unmatched
        outputs, inputs and outputs in increasing order. Returns output ->
        (weight, input) of its heaviest proposer, ties to the lowest input
        (the first one seen). Pure with respect to shared state (RL013):
        the rows are read, never mutated, and no pointer/window state
        exists to advance here.
        """
        best: Dict[int, Tuple[int, int]] = {}
        prefix = draw_prefix(self._seed, now, round_index)
        for port, weights in rows:
            target = pick_proportional(weights, prefixed_draw(prefix, port))
            weight = weights[target]
            held = best.get(target)
            if held is None or weight > held[0]:
                best[target] = (weight, port)
        return best

    # ------------------------------------------------------------------ match

    def match(
        self,
        backlog: Mapping[int, Mapping[int, int]],
        free_outputs: Sequence[int],
        now: int,
    ) -> Matching:
        pairs: List[Tuple[int, int]] = []
        rows: List[Tuple[int, Mapping[int, int]]] = [
            (port, backlog[port]) for port in sorted(backlog) if backlog[port]
        ]
        proposals_seen = 0
        rounds_run = 0
        for round_index in range(self.rounds):
            if not rows:
                break
            best = self._propose_phase(rows, now, round_index)
            rounds_run += 1
            proposals_seen += len(rows)
            # Accept: each output takes its heaviest proposer.
            accepted = [(best[output][1], output) for output in sorted(best)]
            pairs.extend(accepted)
            # The next round re-proposes only among still-unmatched ports.
            matched_inputs = {port for port, _ in accepted}
            matched_outputs = {output for _, output in accepted}
            remaining: List[Tuple[int, Mapping[int, int]]] = []
            for port, weights in rows:
                if port not in matched_inputs:
                    available = {
                        output: flits
                        for output, flits in weights.items()
                        if output not in matched_outputs
                    }
                    if available:
                        remaining.append((port, available))
            rows = remaining
        return Matching(
            tuple(pairs), iterations=max(rounds_run, 1), proposals=proposals_seen
        )
