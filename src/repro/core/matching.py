"""Matching primitives shared by the iterative VOQ schedulers.

The input-queued schedulers in :mod:`repro.qos` (iSLIP, QPS-r, SW-QPS)
are built from three deterministic ingredients:

* :class:`Matching` — the value object one scheduling decision produces:
  a conflict-free set of (input, output) pairs plus diagnostics;
* :func:`round_robin_pick` — the rotating-priority selection both iSLIP
  phases use (grant pointers at outputs, accept pointers at inputs);
  :func:`round_robin_next` is the same pick, unchecked, over a bit mask;
* :func:`keyed_draw` / :func:`sample_proportional` — queue-proportional
  sampling driven by a keyed blake2b hash instead of RNG state, so a
  draw depends only on ``(seed, cycle, round, port)`` and is therefore
  bit-identical across kernels, process fan-out, and resumed sweeps
  (the same stateless-draw idiom as :mod:`repro.faults.injector`). The
  matchers hash each ``(seed, cycle, round)`` prefix once
  (:func:`draw_prefix`) and finish every port's draw from a copy
  (:func:`prefixed_draw`, :func:`pick_proportional`).

Everything here is integer arithmetic — no floats enter any grant
decision, matching the repo-wide integer-exact arbitration contract
(docs/KERNELS.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from ..errors import ArbitrationError


@dataclass(frozen=True)
class Matching:
    """One scheduling decision of an iterative VOQ scheduler.

    Attributes:
        pairs: matched ``(input, output)`` pairs; each input and each
            output appears at most once (validated on construction).
        iterations: request/grant/accept (or propose/accept) rounds the
            scheduler actually ran to produce this matching.
        proposals: total requests/proposals examined across those rounds
            (feeds the ``voq.proposals`` probe counter).
    """

    pairs: Tuple[Tuple[int, int], ...]
    iterations: int = 1
    proposals: int = 0

    def __post_init__(self) -> None:
        inputs = [i for i, _ in self.pairs]
        outputs = [o for _, o in self.pairs]
        if len(set(inputs)) != len(inputs) or len(set(outputs)) != len(outputs):
            raise ArbitrationError(
                f"matching is not conflict-free: inputs {sorted(inputs)}, "
                f"outputs {sorted(outputs)}"
            )

    def __len__(self) -> int:
        return len(self.pairs)


def round_robin_pick(candidates: Sequence[int], pointer: int) -> int:
    """The first candidate at or after ``pointer``, wrapping around.

    This is the rotating-priority selection of the iSLIP grant and accept
    phases: ports are scanned in increasing index order starting at the
    pointer, so the port the pointer rests on has highest priority and
    the one just granted (pointer = winner + 1) has lowest.

    Args:
        candidates: strictly increasing port indices.
        pointer: current round-robin pointer position.

    Raises:
        ArbitrationError: if ``candidates`` is empty or unsorted (a
            scheduler bug — phases must present sorted request sets).
    """
    if not candidates:
        raise ArbitrationError("round_robin_pick over no candidates")
    previous = -1
    for port in candidates:
        if port <= previous:
            raise ArbitrationError(
                f"candidates must be strictly increasing, got {list(candidates)}"
            )
        previous = port
    return round_robin_next(sum(1 << port for port in candidates), pointer)


def round_robin_next(mask: int, pointer: int) -> int:
    """:func:`round_robin_pick` over a set given as a bit mask.

    Bit ``p`` of ``mask`` is set when port ``p`` is a candidate; the mask
    must be non-zero. The matchers keep their request sets as masks, so a
    pick is a shift and a lowest-set-bit test instead of a list scan.
    """
    above = mask >> pointer
    if above:
        return pointer + (above & -above).bit_length() - 1
    return (mask & -mask).bit_length() - 1


def draw_prefix(*prefix: int) -> "hashlib.blake2b":
    """The blake2b state after hashing ``prefix`` as :func:`keyed_draw` does.

    A matcher draws once per port for each (seed, cycle, round); hashing
    the shared leading parts once and finishing each draw with
    :func:`prefixed_draw` on a copy feeds blake2b the same bytes as
    ``keyed_draw(*prefix, port)``.
    """
    material = "".join(f"{part}," for part in prefix).encode("ascii")
    return hashlib.blake2b(material, digest_size=8)


def prefixed_draw(prefix: "hashlib.blake2b", last: int) -> int:
    """``keyed_draw(*parts, last)`` where ``prefix = draw_prefix(*parts)``."""
    hasher = prefix.copy()
    hasher.update(str(last).encode("ascii"))
    return int.from_bytes(hasher.digest(), "big")


def keyed_draw(*key: int) -> int:
    """A 64-bit non-negative integer determined entirely by ``key``.

    blake2b over the ``","``-joined decimal key, same construction as the
    fault injector's stateless draws: no RNG object, no call-order
    dependence — the draw for ``(seed, cycle, round, port)`` is the same
    whoever asks first.
    """
    *prefix, last = key
    return prefixed_draw(draw_prefix(*prefix), last)


def pick_proportional(weights: Mapping[int, int], draw: int) -> int:
    """The key of ``weights`` that ``draw`` lands on, weight-proportionally.

    The queue-proportional sampling step of QPS-r / SW-QPS: an input
    samples one output with probability ``voq_len / total_backlog``. The
    draw is reduced modulo the total weight, then located by walking the
    keys in increasing order — all integers, so the decision replays
    exactly.

    Args:
        weights: positive integer weight per candidate (a VOQ backlog in
            flits), keys in increasing order — the order the simulator
            builds request rows in — so dict insertion order cannot leak
            into the decision.
        draw: a non-negative integer, normally a keyed draw.

    Raises:
        ArbitrationError: if ``weights`` is empty, a weight is
            non-positive (empty VOQs must be filtered before sampling) or
            the keys are not increasing.
    """
    if not weights:
        raise ArbitrationError("sample_proportional over no candidates")
    total = 0
    previous = -1
    for candidate, weight in weights.items():
        if weight <= 0:
            raise ArbitrationError(
                f"non-positive weight {weight} for candidate {candidate}"
            )
        if candidate <= previous:
            raise ArbitrationError(
                f"candidates must be increasing, got {list(weights)}"
            )
        previous = candidate
        total += weight
    point = draw % total
    for candidate, weight in weights.items():
        point -= weight
        if point < 0:
            return candidate
    raise ArbitrationError("sample walk exhausted weights")  # pragma: no cover


def sample_proportional(weights: Mapping[int, int], *key: int) -> int:
    """:func:`pick_proportional` with the draw ``keyed_draw(*key)``."""
    return pick_proportional(weights, keyed_draw(*key))
