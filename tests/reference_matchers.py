"""Straightforward reference copies of the iterative VOQ matchers.

Used only by tests, as ``reference_simulator.py`` is for the event kernel:
these are the iSLIP, QPS-r and SW-QPS matchers written the obvious way,
with no precomputation. Every iteration re-sorts the requesting inputs and
rescans them per output, every draw joins its key into a decimal string
before hashing it, and every proportional sample sorts its candidates.
``tests/test_matcher_oracle.py`` drives the production matchers and these
through the same call sequence and requires equal matchings and equal
pointer and window state after every call.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.matching import Matching


def round_robin_pick(candidates: Sequence[int], pointer: int) -> int:
    """The first candidate at or after ``pointer``, wrapping around."""
    assert candidates, "round_robin_pick over no candidates"
    assert list(candidates) == sorted(set(candidates)), candidates
    for port in candidates:
        if port >= pointer:
            return port
    return candidates[0]


def keyed_draw(*key: int) -> int:
    """blake2b over the ``","``-joined decimal key, as a 64-bit integer."""
    material = ",".join(str(part) for part in key).encode("ascii")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def pick_sorted(weights: Mapping[int, int], draw: int) -> int:
    """The key ``draw`` lands on, walking ``sorted(weights)``."""
    assert weights and all(w > 0 for w in weights.values()), weights
    point = draw % sum(weights.values())
    cumulative = 0
    for candidate in sorted(weights):
        cumulative += weights[candidate]
        if point < cumulative:
            return candidate
    raise AssertionError("sample walk exhausted weights")  # pragma: no cover


def sample_proportional(weights: Mapping[int, int], *key: int) -> int:
    """A key of ``weights`` drawn with probability proportional to weight."""
    return pick_sorted(weights, keyed_draw(*key))


class ReferenceISLIP:
    """iSLIP: request, grant and accept over every unmatched port."""

    def __init__(self, num_inputs: int, iterations: Optional[int] = None) -> None:
        if iterations is None:
            iterations = max(1, num_inputs.bit_length() - 1)
        self.num_inputs = num_inputs
        self.iterations = iterations
        self._grant_pointers = [0] * num_inputs
        self._accept_pointers = [0] * num_inputs

    def bind_seed(self, seed: int) -> None:
        pass

    def _grant_phase(self, backlog, free_outputs, matched_inputs, matched_outputs):
        offers: Dict[int, List[int]] = {}
        requests_seen = 0
        for output in free_outputs:
            if output in matched_outputs:
                continue
            requesters = [
                port
                for port in sorted(backlog)
                if port not in matched_inputs and output in backlog[port]
            ]
            if not requesters:
                continue
            requests_seen += len(requesters)
            granted = round_robin_pick(requesters, self._grant_pointers[output])
            offers.setdefault(granted, []).append(output)
        return offers, requests_seen

    def _accept_phase(self, offers, first_iteration):
        accepted: List[Tuple[int, int]] = []
        for port in sorted(offers):
            output = round_robin_pick(sorted(offers[port]), self._accept_pointers[port])
            accepted.append((port, output))
            if first_iteration:
                self._grant_pointers[output] = (port + 1) % self.num_inputs
                self._accept_pointers[port] = (output + 1) % self.num_inputs
        return accepted

    def match(self, backlog, free_outputs, now) -> Matching:
        pairs: List[Tuple[int, int]] = []
        matched_inputs: Set[int] = set()
        matched_outputs: Set[int] = set()
        proposals = 0
        rounds = 0
        for iteration in range(self.iterations):
            offers, requests_seen = self._grant_phase(
                backlog, free_outputs, matched_inputs, matched_outputs
            )
            if not offers:
                break
            rounds += 1
            proposals += requests_seen
            for port, output in self._accept_phase(offers, iteration == 0):
                pairs.append((port, output))
                matched_inputs.add(port)
                matched_outputs.add(output)
        return Matching(tuple(pairs), iterations=max(rounds, 1), proposals=proposals)


class ReferenceQPSR:
    """QPS-r: queue-proportional proposals, longest-VOQ-first accepts."""

    def __init__(self, num_inputs: int, rounds: int = 2) -> None:
        self.rounds = rounds
        self._seed = 0

    def bind_seed(self, seed: int) -> None:
        self._seed = seed

    def _propose_phase(self, backlog, matched_inputs, matched_outputs, now, round_index):
        proposals: Dict[int, List[Tuple[int, int]]] = {}
        count = 0
        for port in sorted(backlog):
            if port in matched_inputs:
                continue
            available = {
                output: flits
                for output, flits in backlog[port].items()
                if output not in matched_outputs
            }
            if not available:
                continue
            target = sample_proportional(available, self._seed, now, round_index, port)
            proposals.setdefault(target, []).append((available[target], port))
            count += 1
        return proposals, count

    def match(self, backlog, free_outputs, now) -> Matching:
        pairs: List[Tuple[int, int]] = []
        matched_inputs: Set[int] = set()
        matched_outputs: Set[int] = set()
        proposals_seen = 0
        rounds_run = 0
        for round_index in range(self.rounds):
            proposals, count = self._propose_phase(
                backlog, matched_inputs, matched_outputs, now, round_index
            )
            if not proposals:
                break
            rounds_run += 1
            proposals_seen += count
            for output in sorted(proposals):
                _, port = max(proposals[output], key=lambda e: (e[0], -e[1]))
                pairs.append((port, output))
                matched_inputs.add(port)
                matched_outputs.add(output)
        return Matching(tuple(pairs), iterations=max(rounds_run, 1), proposals=proposals_seen)


class _Slot:
    def __init__(self) -> None:
        self.by_input: Dict[int, int] = {}
        self.by_output: Dict[int, int] = {}

    def accepts(self, port: int, output: int) -> bool:
        return port not in self.by_input and output not in self.by_output

    def add(self, port: int, output: int) -> None:
        self.by_input[port] = output
        self.by_output[output] = port

    def remove(self, port: int) -> None:
        del self.by_output[self.by_input.pop(port)]


class ReferenceSWQPS:
    """SW-QPS: one proposal per elapsed cycle into a sliding window."""

    def __init__(self, num_inputs: int, window: Optional[int] = None) -> None:
        self.window = num_inputs if window is None else window
        self._slots: Deque[_Slot] = deque(_Slot() for _ in range(self.window))
        self._last_call = -1
        self._seed = 0

    def bind_seed(self, seed: int) -> None:
        self._seed = seed

    def _propose_phase(self, backlog, now, cached):
        weighted: List[Tuple[int, int, int]] = []
        for port in sorted(backlog):
            weights = backlog[port]
            if not weights:
                continue
            target = sample_proportional(weights, self._seed, now, 0, port)
            held = cached.get(port, ())
            if target in held:
                fresh = {o: w for o, w in weights.items() if o not in held}
                if not fresh:
                    continue
                target = sample_proportional(fresh, self._seed, now, 1, port)
            weighted.append((weights[target], port, target))
        weighted.sort(key=lambda entry: (-entry[0], entry[1]))
        return [(port, target) for _, port, target in weighted], len(weighted)

    def match(self, backlog, free_outputs, now) -> Matching:
        elapsed = min(self.window, max(1, now - self._last_call))
        count = 0
        cached: Dict[int, Set[int]] = {}
        for slot in self._slots:
            for held_port, held_output in slot.by_input.items():
                cached.setdefault(held_port, set()).add(held_output)
        for cycle in range(now - elapsed + 1, now + 1):
            proposals, round_count = self._propose_phase(backlog, cycle, cached)
            for port, output in proposals:
                for slot in self._slots:
                    if slot.accepts(port, output):
                        slot.add(port, output)
                        break
                cached.setdefault(port, set()).add(output)
            count += round_count
        self._last_call = now
        usable_outputs = set(free_outputs)
        candidates: List[Tuple[int, int, int, int]] = []
        for age, slot in enumerate(self._slots):
            for port, output in sorted(slot.by_input.items()):
                if output in usable_outputs and output in backlog.get(port, {}):
                    candidates.append((-backlog[port][output], age, port, output))
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
        self._slots.append(_Slot())
        tail = self._slots[-1]
        for port, output in sorted(head.by_input.items()):
            if port in backlog and output not in backlog[port]:
                continue
            if tail.accepts(port, output):
                tail.add(port, output)
        return Matching(tuple(pairs), iterations=1, proposals=count)
