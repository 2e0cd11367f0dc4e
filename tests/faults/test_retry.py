"""Tests for the retry policy and the executor's in-place retry loop."""

import pytest

from repro.campaign import ExecutionContext, build_cells_campaign, run_campaign
from repro.campaign.executor import execute_unit
from repro.faults import (
    DEFAULT_TRANSIENT_TYPES,
    DeadlineExceeded,
    RetryPolicy,
    TransientFaultError,
)

_FAST = RetryPolicy(base_delay_s=0.0, max_attempts=3)


def test_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError, match="delays"):
        RetryPolicy(base_delay_s=-1.0)


def test_transient_classification_by_type():
    policy = RetryPolicy()
    for name in DEFAULT_TRANSIENT_TYPES:
        assert policy.is_transient({"type": name, "message": ""})
    assert not policy.is_transient({"type": "ValueError", "message": ""})
    assert not policy.is_transient(None)


def test_explicit_retryable_flag_wins_both_ways():
    policy = RetryPolicy()
    assert policy.is_transient({"type": "ValueError", "retryable": True})
    assert not policy.is_transient({"type": "OSError", "retryable": False})


def test_transient_exception_classification():
    policy = RetryPolicy()
    assert policy.is_transient_exception(TransientFaultError("x"))
    assert policy.is_transient_exception(DeadlineExceeded("x", timeout_s=1.0))
    assert not policy.is_transient_exception(ValueError("x"))


def test_delay_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
    assert policy.delay_s("k", 1) == pytest.approx(0.1)
    assert policy.delay_s("k", 2) == pytest.approx(0.2)
    assert policy.delay_s("k", 3) == pytest.approx(0.4)
    assert policy.delay_s("k", 4) == pytest.approx(0.5)  # capped
    with pytest.raises(ValueError):
        policy.delay_s("k", 0)


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5, seed=9)
    d1 = policy.delay_s("unit-a", 1)
    d2 = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5, seed=9).delay_s(
        "unit-a", 1
    )
    assert d1 == d2  # pure function of (seed, key, attempt)
    assert 0.5 <= d1 <= 1.0
    assert policy.delay_s("unit-b", 1) != d1  # varies by key


# Module-level worker: fails transiently until the third call.
_CALLS = {"n": 0}


def _flaky_then_ok(unit):
    _CALLS["n"] += 1
    if _CALLS["n"] < 3:
        raise TransientFaultError("not yet")
    return {"row": [unit["k"], unit["n"]], "passed": True}


def _always_value_error(unit):
    raise ValueError("permanent")


def test_execute_unit_retries_transient_failures():
    _CALLS["n"] = 0
    unit = {"unit_id": "u0", "index": 0, "k": 4, "n": 8}
    record = execute_unit(_flaky_then_ok, unit, retry=_FAST)
    assert record["status"] == "ok"
    assert _CALLS["n"] == 3


def test_execute_unit_gives_up_after_max_attempts():
    _CALLS["n"] = 0
    unit = {"unit_id": "u0", "index": 0, "k": 4, "n": 8}
    record = execute_unit(
        _flaky_then_ok, unit, retry=RetryPolicy(max_attempts=2, base_delay_s=0.0)
    )
    assert record["status"] == "error"
    assert record["error"]["type"] == "TransientFaultError"
    assert record["error"]["retryable"] is True
    assert _CALLS["n"] == 2


def test_execute_unit_does_not_retry_permanent_errors():
    unit = {"unit_id": "u0", "index": 0, "k": 4, "n": 8}
    record = execute_unit(_always_value_error, unit, retry=_FAST)
    assert record["status"] == "error"
    assert record["error"]["type"] == "ValueError"
    assert record["error"]["retryable"] is False


def test_retry_does_not_change_summary_records():
    """A retried-to-success campaign records the same as a clean one."""
    campaign = build_cells_campaign(
        experiment="chaos",
        variant="retry",
        description="retry determinism",
        cells=[(4, 8), (4, 9)],
    )
    _CALLS["n"] = 0
    with_retry = run_campaign(campaign, _flaky_then_ok, ExecutionContext(retry=_FAST))
    records = [
        {k: v for k, v in r.items() if k != "duration_s"} for r in with_retry.records
    ]
    for record in records:
        assert record["status"] == "ok"
        assert "attempts" not in record  # retries leave no summary trace
