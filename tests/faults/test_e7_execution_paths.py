"""E7 gives one ``summary.json`` under every execution path.

E7's worker batches its samples inside ``run_unit``, so a deadline
(killable pool), a process pool and a recovered fault plan all run the
same code as the plain serial campaign.  Each test asserts the summary
bytes match the serial run exactly.  ``REPRO_FAULT_SEED`` (default 0)
selects the fault plan's decision stream, as in the rest of the chaos
suite.
"""

import os

import pytest

from repro.campaign import ExecutionContext, build_campaign, run_campaign
from repro.experiments.e7_scaling import run_unit
from repro.faults import FaultPlan, RetryPolicy

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _summary(ctx=ExecutionContext()):
    report = run_campaign(build_campaign("e7", "quick"), run_unit, ctx)
    assert not report.failures
    return report.summary_bytes()


@pytest.fixture(scope="module")
def serial_summary():
    return _summary()


def test_deadline_path_matches_serial(serial_summary):
    assert _summary(ExecutionContext(timeout=60)) == serial_summary


def test_process_pool_matches_serial(serial_summary):
    assert _summary(ExecutionContext(jobs=2)) == serial_summary


def test_recovered_faults_match_serial(serial_summary, tmp_path):
    plan = FaultPlan(
        seed=SEED,
        rates={"transient": 0.5, "crash": 0.25},
        state_dir=str(tmp_path / "state"),
    )
    ctx = ExecutionContext(
        jobs=2, fault_plan=plan, retry=RetryPolicy(base_delay_s=0.0, seed=SEED)
    )
    assert _summary(ctx) == serial_summary
    assert plan.fired_sites(), "seeded rates must hit at least one of the units"
