"""The chaos invariant: faulted-and-recovered == fault-free, byte for byte.

Every test here executes the same campaign twice — once clean, once
under an armed :class:`~repro.faults.FaultPlan` — and asserts the
recovered run's ``summary.json`` is byte-identical to the clean one.
``REPRO_FAULT_SEED`` (default 0) selects the seeded-decision stream, so
CI can sweep a seed matrix without touching the code.
"""

import os
import time

import pytest

from repro.campaign import ExecutionContext, ResultStore, build_cells_campaign, run_campaign
from repro.faults import FaultPlan, KillPoint, RetryPolicy, demo_worker

#: Seed of the fault plan's decision stream; CI sweeps this via the
#: environment (chaos job matrix), defaulting to 0 locally.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

_CELLS = [(k, n) for n in (8, 9, 10) for k in (3, 4, 5)]

_FAST_RETRY = RetryPolicy(base_delay_s=0.0, seed=SEED)


def _campaign(tag):
    return build_cells_campaign(
        experiment="chaos",
        variant=tag,
        description=f"chaos determinism ({tag})",
        cells=_CELLS,
    )


def _run_summary(tmp_path, tag, name, **knobs):
    """Run the campaign into a fresh store under ``ExecutionContext(**knobs)``;
    return the summary bytes."""
    ctx = ExecutionContext(store=str(tmp_path / name), **knobs)
    report = run_campaign(_campaign(tag), demo_worker, ctx)
    with open(report.summary_path, "rb") as handle:
        return handle.read()


def test_crash_faults_recover_byte_identical(tmp_path):
    clean = _run_summary(tmp_path, "crash", "clean")
    plan = FaultPlan(
        seed=SEED, rates={"crash": 0.4}, state_dir=str(tmp_path / "state")
    )
    faulted = _run_summary(tmp_path, "crash", "faulted", jobs=2, fault_plan=plan)
    assert plan.fired_sites(), "seeded rates must hit at least one of 9 sites"
    assert faulted == clean


def test_transient_faults_recover_byte_identical(tmp_path):
    clean = _run_summary(tmp_path, "transient", "clean")
    plan = FaultPlan(
        seed=SEED, rates={"transient": 0.5}, state_dir=str(tmp_path / "state")
    )
    faulted = _run_summary(
        tmp_path, "transient", "faulted", fault_plan=plan, retry=_FAST_RETRY
    )
    assert plan.fired_sites()
    assert faulted == clean


def test_hang_faults_recover_byte_identical_within_deadline(tmp_path):
    clean = _run_summary(tmp_path, "hang", "clean")
    plan = FaultPlan(
        seed=SEED,
        sites={"unit:chaos-hang:u004*": "hang"},
        hang_s=120.0,
        state_dir=str(tmp_path / "state"),
    )
    start = time.monotonic()
    faulted = _run_summary(
        tmp_path, "hang", "faulted", jobs=2, timeout=2.0, fault_plan=plan
    )
    wall = time.monotonic() - start
    assert wall < 60.0, "hung worker must be reaped at the deadline, not awaited"
    assert plan.fired_sites() == ["unit:chaos-hang:u004-k004-n009"]
    assert faulted == clean


def test_slow_io_faults_recover_byte_identical(tmp_path):
    clean = _run_summary(tmp_path, "slow", "clean")
    plan = FaultPlan(
        seed=SEED, rates={"slow_io": 0.6}, slow_s=0.01, state_dir=str(tmp_path / "state")
    )
    faulted = _run_summary(tmp_path, "slow", "faulted", jobs=2, fault_plan=plan)
    assert plan.fired_sites()
    assert faulted == clean


@pytest.mark.parametrize("stage", ["enter", "tmp_written", "replaced"])
def test_killed_store_write_then_resume_byte_identical(tmp_path, stage):
    """A kill inside a store unit write ends the run; a resume heals it."""
    clean = _run_summary(tmp_path, "kill", "clean")
    plan = FaultPlan(
        seed=SEED,
        sites={f"cache.put.{stage}:*": "kill"},
        state_dir=str(tmp_path / "state"),
    )
    campaign = _campaign("kill")
    store = ResultStore(str(tmp_path / "faulted"), fault_plan=plan)
    with pytest.raises(KillPoint):
        run_campaign(campaign, demo_worker, ExecutionContext(store=store))
    assert not os.path.exists(store.summary_path(campaign.name))
    # Restart: a fresh, fault-free store resumes and completes the run.
    # Only a kill after the atomic replace leaves the first unit stored.
    resumed = ResultStore(str(tmp_path / "faulted"))
    report = run_campaign(campaign, demo_worker, ExecutionContext(store=resumed))
    assert len(report.resumed) == (1 if stage == "replaced" else 0)
    with open(resumed.summary_path(campaign.name), "rb") as handle:
        assert handle.read() == clean


def test_mixed_fault_storm_recovers_byte_identical(tmp_path):
    """All recoverable kinds at once, in parallel, under a deadline."""
    clean = _run_summary(tmp_path, "storm", "clean")
    plan = FaultPlan(
        seed=SEED,
        rates={"crash": 0.2, "transient": 0.2, "hang": 0.1, "slow_io": 0.2},
        hang_s=120.0,
        slow_s=0.005,
        state_dir=str(tmp_path / "state"),
    )
    start = time.monotonic()
    faulted = _run_summary(
        tmp_path,
        "storm",
        "faulted",
        jobs=2,
        timeout=3.0,
        retry=_FAST_RETRY,
        fault_plan=plan,
    )
    wall = time.monotonic() - start
    assert wall < 120.0
    assert faulted == clean


def test_fault_plan_decisions_identical_across_parallelism(tmp_path):
    """jobs=1 and jobs=2 under the same plan produce the same summary.

    Faults fire per *site*, not per schedule: the set of injected
    faults — and therefore the recovered output — must not depend on
    how the units were distributed over workers.
    """
    plan_a = FaultPlan(
        seed=SEED, rates={"transient": 0.4}, state_dir=str(tmp_path / "sa")
    )
    plan_b = FaultPlan(
        seed=SEED, rates={"transient": 0.4}, state_dir=str(tmp_path / "sb")
    )
    serial = _run_summary(
        tmp_path, "par", "serial", fault_plan=plan_a, retry=_FAST_RETRY
    )
    parallel = _run_summary(
        tmp_path, "par", "parallel", jobs=2, fault_plan=plan_b, retry=_FAST_RETRY
    )
    assert plan_a.fired_sites() == plan_b.fired_sites()
    assert serial == parallel
