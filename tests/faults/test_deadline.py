"""Deadline enforcement: hung work is killed, never awaited forever."""

import time

import pytest

from repro.campaign import ExecutionContext, build_cells_campaign, run_campaign
from repro.faults import DeadlineExceeded, call_with_deadline


# Module-level callables: the deadline wrapper ships them to a worker
# process by reference.
def _quick_add(a, b):
    return a + b


def _sleep_forever():
    time.sleep(3600)


def _sleepy_worker(unit):
    # Hang on exactly one unit; the rest complete instantly.
    if unit["k"] == 4 and unit["n"] == 8:
        time.sleep(3600)
    return {"row": [unit["k"], unit["n"]], "passed": True}


def test_inline_when_no_timeout():
    assert call_with_deadline(_quick_add, (2, 3)) == 5


def test_result_within_deadline():
    assert call_with_deadline(_quick_add, (2, 3), timeout=30.0) == 5


def test_rejects_non_positive_timeout():
    with pytest.raises(ValueError, match="timeout"):
        call_with_deadline(_quick_add, (2, 3), timeout=0.0)


def test_hung_call_is_killed_within_deadline():
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded) as excinfo:
        call_with_deadline(_sleep_forever, timeout=1.0, what="hang probe")
    wall = time.monotonic() - start
    # The acceptance bound: no unbounded wait.  Allow generous slack for
    # pool spin-up and SIGTERM delivery, but nothing near the hang.
    assert wall < 30.0
    assert excinfo.value.timeout_s == 1.0
    assert excinfo.value.retryable is True
    assert "hang probe" in str(excinfo.value)


def test_campaign_hung_unit_reaped_and_recorded_as_timeout():
    """A hung campaign unit is killed at the deadline and marked timeout."""
    campaign = build_cells_campaign(
        experiment="chaos",
        variant="deadline",
        description="hung unit reaping",
        cells=[(4, 8), (4, 9), (5, 9)],
    )
    start = time.monotonic()
    report = run_campaign(campaign, _sleepy_worker, ExecutionContext(jobs=2, timeout=1.5))
    wall = time.monotonic() - start
    assert wall < 60.0  # two attempts (pool + isolation), never unbounded
    by_unit = {r["unit_id"]: r for r in report.records}
    statuses = {uid: r["status"] for uid, r in by_unit.items()}
    timed_out = [uid for uid, s in statuses.items() if s == "timeout"]
    assert len(timed_out) == 1
    record = by_unit[timed_out[0]]
    assert record["k"] == 4 and record["n"] == 8
    assert record["error"]["type"] == "DeadlineExceeded"
    assert record["error"]["retryable"] is True
    assert record["payload"] is None
    # The healthy bystander units all completed normally.
    assert sum(1 for s in statuses.values() if s == "ok") == 2


def test_serial_campaign_timeout_also_enforced():
    """jobs=1 with a timeout still runs through the killable pool."""
    campaign = build_cells_campaign(
        experiment="chaos",
        variant="deadline-serial",
        description="serial deadline",
        cells=[(4, 8), (4, 9)],
    )
    start = time.monotonic()
    report = run_campaign(campaign, _sleepy_worker, ExecutionContext(jobs=1, timeout=1.5))
    wall = time.monotonic() - start
    assert wall < 60.0
    statuses = sorted(r["status"] for r in report.records)
    assert statuses == ["ok", "timeout"]
