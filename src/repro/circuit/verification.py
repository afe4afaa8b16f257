"""Equivalence checking of the wire-level model (paper Section 4.1).

"We tested this program with all input combinations of thermometer code
vectors and valid LRG states. The arbitration decision of the [wire] level
model was compared to the arbitration decision of a true (non-coarse
grained) auxVC value comparison to verify that each decision was correct."

The *reference* decision implemented here is what the coarse hardware is
specified to compute: the smallest thermometer level wins; ties resolve by
LRG; any eligible GL request pre-empts all GB requests and GL-vs-GL
resolves by LRG. The checkers sweep level assignments × LRG orders ×
request subsets (exhaustively for small radix, randomized for larger) and
raise on the first disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.lrg import LRGState
from ..core.thermometer import ThermometerCode
from ..errors import ConfigError, VerificationError
from .fabric import ArbitrationFabric, FabricRequest


def reference_decision(
    levels: Sequence[Optional[int]],
    gl_flags: Sequence[bool],
    requesters: Sequence[int],
    lrg_order: Sequence[int],
) -> int:
    """The specified arbitration outcome, computed directly.

    Args:
        levels: per-input thermometer level (None for GL-only requesters).
        gl_flags: per-input GL request flag.
        requesters: inputs requesting this cycle.
        lrg_order: LRG priority order, highest first.

    Returns:
        The winning input index.
    """
    rank = {port: r for r, port in enumerate(lrg_order)}
    gl = [p for p in requesters if gl_flags[p]]
    if gl:
        return min(gl, key=rank.__getitem__)
    resolved: Dict[int, int] = {}
    for p in requesters:
        level = levels[p]
        if level is None:
            raise VerificationError(
                f"GB requester {p} has no thermometer level (levels={levels})"
            )
        resolved[p] = level
    best = min(resolved.values())
    tied = [p for p in requesters if resolved[p] == best]
    return min(tied, key=rank.__getitem__)


@dataclass
class VerificationReport:
    """Outcome of a verification sweep.

    Attributes:
        trials: decisions checked.
        radix: fabric radix.
        levels: thermometer positions swept.
    """

    trials: int
    radix: int
    levels: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.trials} arbitration decisions verified "
            f"(radix {self.radix}, {self.levels} levels)"
        )


def _check_case(
    radix: int,
    num_levels: int,
    levels: Tuple[int, ...],
    gl_flags: Tuple[bool, ...],
    requesters: Tuple[int, ...],
    lrg_order: Tuple[int, ...],
) -> None:
    fabric = ArbitrationFabric(radix, num_levels, lrg=LRGState(radix, lrg_order))
    requests = [
        FabricRequest(
            input_port=p,
            thermometer=(
                None
                if gl_flags[p]
                else ThermometerCode(positions=num_levels, level=levels[p])
            ),
            is_gl=gl_flags[p],
        )
        for p in requesters
    ]
    wire_winner = fabric.arbitrate(requests)
    expected = reference_decision(levels, gl_flags, requesters, lrg_order)
    if wire_winner != expected:
        raise VerificationError(
            f"wire model chose input {wire_winner}, reference chose {expected} "
            f"(levels={levels}, gl={gl_flags}, requesters={requesters}, "
            f"lrg={lrg_order})"
        )


def verify_exhaustive(radix: int = 4, num_levels: int = 4, include_gl: bool = True) -> VerificationReport:
    """Sweep *all* level combinations, LRG orders, and request subsets.

    It checks ``num_levels**radix * radix! * ((2**radix - 1) + radix *
    2**(radix - 1))`` decisions: every level assignment and LRG order,
    times every request subset without GL plus every (GL requester, subset
    holding it) pair. That is 3,078 at radix 3 with 3 levels and 288,768
    at radix 4 with 4 levels, which takes 20-25 s on one Xeon core at
    ~80 µs per decision. Radix 5 with 5 levels is 41,625,000 decisions;
    use :func:`verify_random` there.

    Raises:
        VerificationError: on the first mismatching decision.
    """
    trials = 0
    ports = list(range(radix))
    subsets = [
        tuple(s)
        for k in range(1, radix + 1)
        for s in itertools.combinations(ports, k)
    ]
    gl_options: List[Tuple[bool, ...]]
    if include_gl:
        # One GL requester (or none) is enough to exercise the override in
        # the exhaustive sweep; multi-GL cases are covered randomly.
        gl_options = [tuple(False for _ in ports)] + [
            tuple(i == g for i in ports) for g in ports
        ]
    else:
        gl_options = [tuple(False for _ in ports)]
    for levels in itertools.product(range(num_levels), repeat=radix):
        for lrg_order in itertools.permutations(ports):
            for requesters in subsets:
                for gl_flags in gl_options:
                    if any(gl_flags[p] for p in ports if p not in requesters):
                        continue  # GL flag on a non-requester is meaningless
                    _check_case(radix, num_levels, levels, gl_flags, requesters, lrg_order)
                    trials += 1
    return VerificationReport(trials=trials, radix=radix, levels=num_levels)


def verify_random(
    radix: int = 8,
    num_levels: int = 8,
    trials: int = 2000,
    seed: Optional[int] = None,
    gl_probability: float = 0.15,
    rng: Optional[np.random.Generator] = None,
) -> VerificationReport:
    """Randomized sweep for radices where exhaustion is infeasible.

    The sweep (including the ``gl_probability`` coin flips that decide
    which requesters are GL) draws every sample from one explicitly
    seeded generator: pass either ``seed`` or an already-seeded ``rng``.
    There is deliberately no fallback to ambient/global randomness — a
    failure report that cannot name its seed cannot be replayed.

    Raises:
        VerificationError: on the first mismatching decision.
        ConfigError: if neither ``seed`` nor ``rng`` is supplied.
    """
    if rng is None:
        if seed is None:
            raise ConfigError(
                "verify_random requires an explicit seed (or a seeded rng); "
                "an unseeded sweep cannot be replayed"
            )
        rng = np.random.default_rng(seed)
    ports = list(range(radix))
    for _ in range(trials):
        levels = tuple(int(v) for v in rng.integers(0, num_levels, size=radix))
        lrg_order = tuple(int(v) for v in rng.permutation(radix))
        k = int(rng.integers(1, radix + 1))
        requesters = tuple(int(v) for v in rng.choice(radix, size=k, replace=False))
        gl_flags = tuple(
            bool(p in requesters and rng.random() < gl_probability) for p in ports
        )
        _check_case(radix, num_levels, levels, gl_flags, requesters, lrg_order)
    return VerificationReport(trials=trials, radix=radix, levels=num_levels)
