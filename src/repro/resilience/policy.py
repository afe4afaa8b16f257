"""Retry budgets, deterministic backoff, and failure policies for sweeps.

The paper bounds how long a guaranteed-latency packet can wait (Eq. 1) and
polices how much service an abusive source can take (the GL policer); the
sweep harness applies the same discipline to its own execution:

* a **per-point timeout** bounds how long one sweep point may run before
  the watchdog kills its worker (the harness analogue of the Eq. 1 bound);
* a **retry budget** bounds how many times a failed or timed-out point may
  be re-attempted (the analogue of the policer's reservation), with a
  deterministic seeded-jitter backoff between attempts so retried fleets
  do not stampede;
* a :class:`FailurePolicy` decides what an exhausted budget means:
  ``FAIL_FAST`` aborts the sweep (the historical behavior, still the
  default), ``SALVAGE`` records the failure and returns partial results
  with explicit holes — graceful degradation instead of collapse.

Backoff jitter is a *keyed hash*, not an RNG: the delay before attempt
``k`` of point ``i`` is a pure function of ``(seed, i, k)``, so two runs
of the same sweep sleep the same schedule and no global RNG state is
touched (lint rule RL001 applies to harness code too).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


class FailurePolicy(enum.Enum):
    """What to do when a sweep point exhausts its retry budget."""

    #: Abort the whole sweep on the first exhausted point (historical
    #: behavior; completed points are still journaled, so the run is
    #: resumable).
    FAIL_FAST = "fail-fast"
    #: Record the failure, leave an explicit hole, and keep going; the
    #: sweep returns every point that did complete.
    SALVAGE = "salvage"


def backoff_delay(
    seed: int,
    point_index: int,
    attempt: int,
    base: float,
    cap: float,
) -> float:
    """Deterministic seeded-jitter backoff before retry ``attempt``.

    Exponential envelope (``base * 2**(attempt-1)``, clamped to ``cap``)
    scaled by a jitter factor in ``[0.5, 1.0)`` drawn from a blake2b keyed
    hash of ``(seed, point_index, attempt)`` — the same order-independent
    keyed-draw construction :mod:`repro.faults` uses, so the delay depends
    only on *which* retry this is, never on scheduling history.

    Args:
        seed: retry-policy seed (journal/resume keeps it stable per run).
        point_index: the sweep point's ``index``.
        attempt: 1-based retry number (the first *retry* is attempt 1).
        base: envelope scale in seconds for the first retry.
        cap: upper clamp on the envelope in seconds.
    """
    if attempt < 1:
        raise ConfigError(f"backoff attempt must be >= 1, got {attempt}")
    envelope = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.blake2b(
        f"{point_index}:{attempt}".encode("utf-8"),
        key=seed.to_bytes(8, "little", signed=False),
        digest_size=8,
    ).digest()
    jitter = 0.5 + int.from_bytes(digest, "little") / 2.0**65
    return envelope * jitter


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, policed re-execution of failed or timed-out sweep points.

    Attributes:
        retries: additional attempts after the first (0 = never retry).
        point_timeout: wall seconds one attempt may run before the
            watchdog kills the worker process and counts a timeout.
            ``None`` disables the watchdog. Enforced only when points run
            in worker processes (``jobs >= 2``) — with ``jobs=1`` there is
            no worker to police, which the executor surfaces as an
            outcome note rather than silently ignoring.
        backoff_base: envelope scale (seconds) of the first retry delay.
        backoff_cap: upper clamp (seconds) on the backoff envelope.
        seed: key for the deterministic jitter draws.
    """

    retries: int = 0
    point_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        # ``not > 0`` also rejects NaN, which compares False both ways and
        # would otherwise time out every attempt.
        if self.point_timeout is not None and not self.point_timeout > 0:
            raise ConfigError(
                f"point_timeout must be > 0 seconds, got {self.point_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigError(
                "backoff envelope must satisfy 0 <= base <= cap, got "
                f"base={self.backoff_base}, cap={self.backoff_cap}"
            )

    def delay_before(self, point_index: int, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` of ``point_index``."""
        return backoff_delay(
            self.seed, point_index, attempt, self.backoff_base, self.backoff_cap
        )
