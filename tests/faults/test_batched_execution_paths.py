"""Batched experiments give one ``summary.json`` under every execution path.

E3, E4 and E7 batch the starts or samples of a cell inside ``run_unit``,
so a deadline (killable pool), a process pool and a recovered fault plan
all run the same code as the plain serial campaign.  Each test asserts
the summary bytes match the serial run exactly.  ``REPRO_FAULT_SEED``
(default 0) selects the fault plan's decision stream, as in the rest of
the chaos suite.
"""

import os

import pytest

from repro.campaign import ExecutionContext, build_campaign, run_campaign
from repro.experiments import e3_ring_clearing, e4_nminusthree, e7_scaling
from repro.faults import FaultPlan, RetryPolicy

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

WORKERS = {
    "e3": e3_ring_clearing.run_unit,
    "e4": e4_nminusthree.run_unit,
    "e7": e7_scaling.run_unit,
}


def _summary(experiment, ctx=ExecutionContext()):
    report = run_campaign(build_campaign(experiment, "quick"), WORKERS[experiment], ctx)
    assert not report.failures
    return report.summary_bytes()


@pytest.fixture(scope="module", params=sorted(WORKERS))
def experiment(request):
    return request.param


@pytest.fixture(scope="module")
def serial_summary(experiment):
    return _summary(experiment)


def test_deadline_path_matches_serial(experiment, serial_summary):
    assert _summary(experiment, ExecutionContext(timeout=60)) == serial_summary


def test_process_pool_matches_serial(experiment, serial_summary):
    assert _summary(experiment, ExecutionContext(jobs=2)) == serial_summary


def test_recovered_faults_match_serial(experiment, serial_summary, tmp_path):
    plan = FaultPlan(
        seed=SEED,
        rates={"transient": 0.5, "crash": 0.25},
        state_dir=str(tmp_path / "state"),
    )
    ctx = ExecutionContext(
        jobs=2, fault_plan=plan, retry=RetryPolicy(base_delay_s=0.0, seed=SEED)
    )
    assert _summary(experiment, ctx) == serial_summary
    assert plan.fired_sites(), "seeded rates must hit at least one of the units"
