"""Tests for the deterministic fault-plan core (decide/arm/fire)."""

import os

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, KillPoint, TransientFaultError


def test_rejects_unknown_fault_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan(rates={"meteor": 0.5})
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan(sites={"unit:*": "meteor"})


def test_decide_is_deterministic_across_instances():
    a = FaultPlan(seed=7, rates={"crash": 0.3, "transient": 0.3})
    b = FaultPlan(seed=7, rates={"crash": 0.3, "transient": 0.3})
    sites = [f"unit:demo:u{i:03d}" for i in range(200)]
    assert [a.decide(s) for s in sites] == [b.decide(s) for s in sites]


def test_decide_varies_with_seed():
    sites = [f"unit:demo:u{i:03d}" for i in range(200)]
    a = [FaultPlan(seed=0, rates={"crash": 0.5}).decide(s) for s in sites]
    b = [FaultPlan(seed=1, rates={"crash": 0.5}).decide(s) for s in sites]
    assert a != b


def test_rates_roughly_respected():
    plan = FaultPlan(seed=3, rates={"transient": 0.25})
    decisions = [plan.decide(f"unit:demo:u{i:04d}") for i in range(2000)]
    hits = sum(1 for d in decisions if d == "transient")
    assert 0.15 < hits / len(decisions) < 0.35


def test_explicit_site_pattern_beats_rates():
    plan = FaultPlan(
        seed=0,
        rates={"crash": 1.0},
        sites={"unit:demo:u007*": "transient"},
    )
    assert plan.decide("unit:demo:u007-k4-n8") == "transient"
    assert plan.decide("unit:demo:u008-k4-n8") == "crash"


def test_unsupported_kind_does_not_fire():
    plan = FaultPlan(sites={"cache.put.enter:*": "crash"})
    # The cache's write-path sites do not support crash faults.
    assert plan.decide("cache.put.enter:abc", supported=("kill", "slow_io")) is None


def test_fire_once_with_local_markers():
    plan = FaultPlan(sites={"unit:demo:*": "transient"})
    with pytest.raises(TransientFaultError):
        plan.fire("unit:demo:u001")
    # Second firing at the same site is suppressed: recovery sees health.
    assert plan.fire("unit:demo:u001") is None
    assert plan.fired_sites() == ["unit:demo:u001"]


def test_fire_once_markers_are_durable_across_instances(tmp_path):
    state = str(tmp_path / "state")
    first = FaultPlan(sites={"unit:demo:*": "transient"}, state_dir=state)
    with pytest.raises(TransientFaultError):
        first.fire("unit:demo:u001")
    # A fresh plan object (as a restarted process would build) sees the
    # durable marker and does not re-fire.
    second = FaultPlan(sites={"unit:demo:*": "transient"}, state_dir=state)
    assert second.fire("unit:demo:u001") is None
    assert second.fired_sites() == ["unit:demo:u001"]


def test_kill_point_raises_base_exception():
    plan = FaultPlan(sites={"cache.put.tmp_written:*": "kill"})
    with pytest.raises(KillPoint):
        plan.kill_point("cache.put.tmp_written:abc")
    # KillPoint must tunnel through `except Exception` like process death.
    assert not issubclass(KillPoint, Exception)


def test_slow_io_fires_and_returns(tmp_path):
    plan = FaultPlan(
        sites={"cache.put.enter:*": "slow_io"}, slow_s=0.0, state_dir=str(tmp_path)
    )
    assert plan.fire("cache.put.enter:abc") == "slow_io"
    assert plan.fire("cache.put.enter:abc") is None


def test_fault_kinds_registry_is_stable():
    assert FAULT_KINDS == ("crash", "hang", "transient", "slow_io", "kill")


def test_marker_files_use_hashed_names(tmp_path):
    state = str(tmp_path / "state")
    plan = FaultPlan(sites={"a/b:c": "transient"}, state_dir=state)
    with pytest.raises(TransientFaultError):
        plan.fire("a/b:c", supported=("transient",))
    names = os.listdir(state)
    assert len(names) == 1 and names[0].startswith("fired-")
    # Site names with path separators must not escape the state dir.
    assert "/" not in names[0]
