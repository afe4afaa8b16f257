"""Least-Recently-Granted (LRG) arbitration state.

LRG is the Swizzle Switch's default arbitration policy (Satpathy et al.,
ISSCC 2012): every input holds a priority bit against every other input, and
winning arbitration demotes the winner below all others. The result is a
self-updating total order in which the input granted longest ago always has
the highest priority — a starvation-free, round-robin-like policy.

Two isomorphic representations are provided by the same class:

* the **matrix** view (``has_priority``) mirrors the hardware's per-crosspoint
  priority bits and is what the wire-level model consumes;
* the **ordering** view (``order``) is convenient for behavioral arbiters.

The class maintains the invariant that the relation is a strict total order,
so arbitration among any non-empty requester set has exactly one winner.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..errors import ArbitrationError, ConfigError


class LRGState:
    """LRG priority state over ``n`` inputs.

    The internal representation is the priority ordering ``self._order``:
    a permutation of ``range(n)`` from highest priority (least recently
    granted) to lowest (most recently granted). The matrix view is derived.

    Args:
        n: number of inputs.
        initial_order: optional starting permutation (highest priority
            first); defaults to ``0, 1, ..., n-1``.
    """

    def __init__(self, n: int, initial_order: Optional[Sequence[int]] = None) -> None:
        if n < 1:
            raise ConfigError(f"LRG needs at least one input, got n={n}")
        self.n = n
        if initial_order is None:
            self._order: List[int] = list(range(n))
        else:
            order = list(initial_order)
            if sorted(order) != list(range(n)):
                raise ConfigError(
                    f"initial_order must be a permutation of range({n}), got {order}"
                )
            self._order = order
        # _rank[i] is input i's position in _order; grant() keeps both in
        # step, so arbitration reads a rank with one list index.
        self._rank = [0] * n
        for r, inp in enumerate(self._order):
            self._rank[inp] = r
        self.grant_count = 0

    # ----------------------------------------------------------------- views

    @property
    def order(self) -> List[int]:
        """Inputs from highest to lowest priority (a copy)."""
        return list(self._order)

    @property
    def ranks(self) -> Sequence[int]:
        """Priority rank of every input, indexed by input (0 = highest).

        A live read-only view, updated in place by :meth:`grant`.
        """
        return self._rank

    def rank(self, i: int) -> int:
        """Priority rank of input ``i`` (0 = highest priority)."""
        self._check(i)
        return self._rank[i]

    def has_priority(self, i: int, j: int) -> bool:
        """Matrix view: does input ``i`` beat input ``j``?

        Matches the hardware's ``LRG(i, j)`` bit. ``i == j`` is rejected —
        the hardware stores no diagonal bits.
        """
        self._check(i)
        self._check(j)
        if i == j:
            raise ArbitrationError(f"LRG priority of an input against itself ({i}) is undefined")
        return self._rank[i] < self._rank[j]

    def priority_row(self, i: int) -> List[int]:
        """Bit vector over all inputs: 1 where ``i`` has priority.

        This is the per-crosspoint "LRG bits" register of Table 1 (the
        diagonal position is 0, matching the ``radix - 1`` stored bits plus
        an implicit zero).
        """
        self._check(i)
        my_rank = self._rank[i]
        return [1 if (j != i and my_rank < self._rank[j]) else 0 for j in range(self.n)]

    # --------------------------------------------------------------- updates

    def grant(self, winner: int) -> None:
        """Demote ``winner`` below every other input (self-updating LRG)."""
        self._check(winner)
        order = self._order
        rank = self._rank
        pos = rank[winner]
        # Only the inputs behind the winner move: each gains one place.
        del order[pos]
        order.append(winner)
        for r in range(pos, self.n):
            rank[order[r]] = r
        self.grant_count += 1

    def arbitrate(self, requesters: Iterable[int]) -> int:
        """Pick the least recently granted input among ``requesters``.

        Pure selection — the caller must invoke :meth:`grant` to commit.

        Raises:
            ArbitrationError: if ``requesters`` is empty or contains
                duplicates/invalid indices.
        """
        reqs = list(requesters)
        if not reqs:
            raise ArbitrationError("LRG arbitration requires at least one requester")
        if len(set(reqs)) != len(reqs):
            raise ArbitrationError(f"duplicate requesters: {reqs}")
        for r in reqs:
            self._check(r)
        return self.pick(reqs)

    def pick(self, requesters: Iterable[int]) -> int:
        """:meth:`arbitrate` for callers that have validated ``requesters``.

        ``requesters`` must be non-empty, duplicate-free and in range; the
        arbiters check that once per request set, in their prologue.
        """
        return min(requesters, key=self._rank.__getitem__)

    # --------------------------------------------------------------- helpers

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ArbitrationError(f"input index {i} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LRGState(order={self._order})"
