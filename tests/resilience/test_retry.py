"""Retry policies: budgets, deterministic backoff, the process default."""

import pytest
from hypothesis import given, strategies as st

from repro.resilience.retry import (
    DEFAULT_POLICY,
    RetryPolicy,
    call_with_retry,
    configure_retries,
    current_policy,
    reset_retries,
)


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, error=OSError("disk sneezed")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestCallWithRetry:
    def test_first_try_success_needs_one_call(self):
        fn = Flaky(0)
        assert call_with_retry(fn, sleep=lambda _: None) == "ok"
        assert fn.calls == 1

    def test_recovers_within_budget(self):
        fn = Flaky(2)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        assert call_with_retry(fn, policy=policy, sleep=lambda _: None) == "ok"
        assert fn.calls == 3

    def test_exhausted_budget_raises_the_last_error(self):
        fn = Flaky(5)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with pytest.raises(OSError, match="disk sneezed"):
            call_with_retry(fn, policy=policy, sleep=lambda _: None)
        assert fn.calls == 3

    def test_non_retryable_error_propagates_immediately(self):
        fn = Flaky(1, error=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            call_with_retry(fn, retry_on=(OSError,), sleep=lambda _: None)
        assert fn.calls == 1

    def test_on_retry_hook_sees_each_failed_attempt(self):
        seen = []
        fn = Flaky(2)
        call_with_retry(
            fn,
            policy=RetryPolicy(max_attempts=3, base_delay=0.0),
            on_retry=lambda attempt, exc: seen.append((attempt, type(exc).__name__)),
            sleep=lambda _: None,
        )
        assert seen == [(1, "OSError"), (2, "OSError")]

    def test_backoff_sleeps_between_attempts(self):
        slept = []
        fn = Flaky(2)
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        call_with_retry(fn, policy=policy, sleep=slept.append)
        assert slept == [policy.delay_for(2), policy.delay_for(3)]
        assert slept[1] == pytest.approx(2 * slept[0])


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay_for(1) == 0.0

    @given(
        attempt=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_delay_is_deterministic_and_bounded(self, attempt, seed):
        policy = RetryPolicy(base_delay=0.05, max_delay=2.0, jitter=0.25, seed=seed)
        delay = policy.delay_for(attempt)
        assert delay == policy.delay_for(attempt)  # pure function
        assert 0.0 <= delay <= policy.max_delay * (1.0 + policy.jitter)

    def test_backoff_doubles_until_the_ceiling(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=0.15, jitter=0.0)
        assert policy.delay_for(2) == pytest.approx(0.05)
        assert policy.delay_for(3) == pytest.approx(0.10)
        assert policy.delay_for(4) == pytest.approx(0.15)  # capped
        assert policy.delay_for(9) == pytest.approx(0.15)


class TestProcessDefault:
    def test_configure_retries_adjusts_only_given_fields(self):
        before = current_policy()
        configured = configure_retries(max_attempts=5)
        assert configured.max_attempts == 5
        assert configured.base_delay == before.base_delay
        assert current_policy() is configured

    def test_reset_restores_the_builtin_default(self):
        configure_retries(max_attempts=9, timeout=1.0)
        reset_retries()
        assert current_policy() == DEFAULT_POLICY
