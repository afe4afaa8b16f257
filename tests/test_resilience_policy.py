"""Retry policy and deterministic backoff: pure functions, validated budgets."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.resilience import FailurePolicy, RetryPolicy, backoff_delay


class TestFailurePolicy:
    def test_wire_values_are_the_cli_spellings(self) -> None:
        assert FailurePolicy.FAIL_FAST.value == "fail-fast"
        assert FailurePolicy.SALVAGE.value == "salvage"
        assert FailurePolicy("salvage") is FailurePolicy.SALVAGE


class TestBackoffDelay:
    def test_same_inputs_same_delay(self) -> None:
        args = dict(seed=42, point_index=3, attempt=2, base=0.05, cap=2.0)
        assert backoff_delay(**args) == backoff_delay(**args)

    def test_distinct_keys_give_distinct_jitter(self) -> None:
        delays = {
            backoff_delay(seed, index, attempt, base=1.0, cap=100.0)
            for seed in (0, 1)
            for index in (0, 7)
            for attempt in (1, 2)
        }
        # 8 keyed draws; the envelope doubles per attempt but the jitter
        # hash should still keep every (seed, index, attempt) apart.
        assert len(delays) == 8

    @pytest.mark.parametrize("attempt", [1, 2, 3, 6])
    def test_delay_stays_inside_the_jittered_envelope(self, attempt: int) -> None:
        base, cap = 0.05, 2.0
        envelope = min(cap, base * 2.0 ** (attempt - 1))
        delay = backoff_delay(9, 4, attempt, base=base, cap=cap)
        assert 0.5 * envelope <= delay < envelope

    def test_cap_clamps_the_envelope(self) -> None:
        # attempt 20 would be base * 2**19 without the clamp
        delay = backoff_delay(0, 0, 20, base=0.05, cap=1.5)
        assert delay < 1.5

    def test_attempt_must_be_positive(self) -> None:
        with pytest.raises(ConfigError, match="attempt must be >= 1"):
            backoff_delay(0, 0, 0, base=0.05, cap=2.0)


class TestRetryPolicy:
    def test_defaults_are_the_historical_no_retry_behavior(self) -> None:
        policy = RetryPolicy()
        assert policy.retries == 0
        assert policy.point_timeout is None

    def test_negative_retries_rejected(self) -> None:
        with pytest.raises(ConfigError, match="retries must be >= 0"):
            RetryPolicy(retries=-1)

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout: float) -> None:
        with pytest.raises(ConfigError, match="point_timeout must be > 0"):
            RetryPolicy(point_timeout=timeout)

    def test_inverted_backoff_envelope_rejected(self) -> None:
        with pytest.raises(ConfigError, match="base <= cap"):
            RetryPolicy(backoff_base=3.0, backoff_cap=1.0)
        with pytest.raises(ConfigError, match="base <= cap"):
            RetryPolicy(backoff_base=-0.1)

    def test_delay_before_uses_the_policy_seed(self) -> None:
        policy = RetryPolicy(retries=2, backoff_base=0.1, backoff_cap=5.0, seed=7)
        assert policy.delay_before(3, 1) == backoff_delay(7, 3, 1, 0.1, 5.0)
        other = RetryPolicy(retries=2, backoff_base=0.1, backoff_cap=5.0, seed=8)
        assert policy.delay_before(3, 1) != other.delay_before(3, 1)
