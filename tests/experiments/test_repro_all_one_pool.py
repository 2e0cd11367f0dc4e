"""``repro all`` runs every experiment's units on one pool.

With ``--jobs`` above 1 the pending units of all eight campaigns share
one process pool (``execute_experiments`` -> ``run_campaigns``).  These
tests pin what must not change: the bytes printed and stored, the
cache and store hits answered before any pool starts, and per-unit
crash isolation and deadlines.
"""

import io
import os
import sys

import pytest

import repro.campaign.executor as executor
from repro.campaign import ExecutionContext, ResultStore
from repro.campaign.spec import build_campaign
from repro.cli import main
from repro.experiments import EXPERIMENTS, experiment_module
from repro.faults import FaultPlan
from repro.runs import ExperimentSpec, execute
from repro.runs.execute import execute_experiments

NAMES = sorted(EXPERIMENTS)


def _repro(*argv):
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    return out.getvalue()


def _summaries(root):
    store = ResultStore(str(root))
    summaries = {}
    for name in NAMES:
        with open(store.summary_path(f"{name}-quick"), "rb") as handle:
            summaries[name] = handle.read()
    return summaries


class _SubmitLog:
    """``make_pool`` stand-in: real pools that log every submitted unit."""

    def __init__(self):
        self.units = []
        self._make_pool = executor.make_pool

    def __call__(self, jobs):
        pool = self._make_pool(jobs)
        submit = pool.submit

        def logged(fn, *args):
            self.units.append((args[1]["campaign"], args[1]["unit_id"]))
            return submit(fn, *args)

        pool.submit = logged
        return pool


def _no_pool(jobs):
    raise AssertionError("a pool was started")


def test_stdout_and_summaries_match_jobs_1_and_the_per_experiment_path(tmp_path):
    serial = _repro("all", "--jobs", "1", "--store", str(tmp_path / "serial"))
    pooled = _repro("all", "--jobs", "2", "--store", str(tmp_path / "pooled"))
    assert pooled == serial
    assert _summaries(tmp_path / "pooled") == _summaries(tmp_path / "serial")
    # The reports print as one `repro experiment` run each would print them.
    one_by_one = "".join(
        execute(ExperimentSpec(name=name, variant="quick")).payload["rendered"] + "\n\n"
        for name in NAMES
    )
    assert pooled == one_by_one
    assert pooled.count("result: PASS") == len(NAMES)


def test_an_experiment_spec_runs_through_execute_experiments(monkeypatch):
    # An experiment module is only its worker and its report: `execute`
    # takes the one-pool path and never the `EXPERIMENTS` runners.
    for name in NAMES:
        assert not hasattr(experiment_module(name), "run"), name

    def broken(*args, **kwargs):
        raise AssertionError("execute called an EXPERIMENTS runner")

    monkeypatch.setitem(EXPERIMENTS, "e1", broken)
    result = execute(ExperimentSpec(name="e1"))
    assert result.ok
    assert result.payload["experiment"] == "E1"


def test_fully_cached_reruns_start_no_pool(tmp_path, monkeypatch):
    cache, store = str(tmp_path / "cache"), str(tmp_path / "store")
    cold = _repro("all", "--jobs", "2", "--cache", cache)
    _repro("all", "--jobs", "2", "--store", store)
    monkeypatch.setattr(executor, "make_pool", _no_pool)
    # The whole-run cache answers every experiment ...
    assert _repro("all", "--jobs", "2", "--cache", cache) == cold
    # ... and a complete store answers every unit.
    resumed = _repro("all", "--jobs", "2", "--store", store)
    assert resumed.count("restored from the result store") == len(NAMES)


def test_store_resume_submits_only_the_missing_units(tmp_path, monkeypatch):
    root = str(tmp_path / "store")
    clean = _repro("all", "--jobs", "1", "--store", str(tmp_path / "clean"))
    # A partial run: two experiments complete, one unit of E7 lost again.
    _repro("experiment", "e4", "--store", root)
    _repro("experiment", "e7", "--store", root)
    units = ResultStore(root).units("e7-quick")
    lost = build_campaign("e7", "quick").units[2]
    worker = executor._worker_name(experiment_module("e7").run_unit)
    os.remove(units._path(units.unit_key(worker, lost.as_dict())))

    log = _SubmitLog()
    monkeypatch.setattr(executor, "make_pool", log)
    resumed = _repro("all", "--jobs", "2", "--store", root)
    expected = {("e7-quick", lost.unit_id)} | {
        (unit.campaign, unit.unit_id)
        for name in NAMES
        if name not in ("e4", "e7")
        for unit in build_campaign(name, "quick").units
    }
    assert sorted(log.units) == sorted(expected)
    assert _summaries(root) == _summaries(tmp_path / "clean")
    restored = [line for line in resumed.splitlines() if "restored from the result store" in line]
    assert len(restored) == 2
    assert [line for line in resumed.splitlines() if line not in restored] == clean.splitlines()


@pytest.mark.parametrize("kind", ["crash", "hang"])
def test_a_fault_in_one_experiment_is_retried_in_isolation(tmp_path, monkeypatch, kind):
    names = ("e1", "e3", "e4", "e6")
    specs = [ExperimentSpec(name=name, variant="quick") for name in names]
    clean_store = ResultStore(str(tmp_path / "clean"))
    clean = execute_experiments(specs, ExecutionContext(store=clean_store))

    target = build_campaign("e4", "quick").units[1]
    plan = FaultPlan(
        sites={f"unit:e4-quick:{target.unit_id}": kind},
        hang_s=120.0,
        state_dir=str(tmp_path / "state"),
    )
    retried = []
    retry_in_isolation = executor._retry_in_isolation

    def spy(run, unit, ctx, **kwargs):
        retried.append((unit.unit_id, kwargs["first_attempt_timed_out"]))
        return retry_in_isolation(run, unit, ctx, **kwargs)

    monkeypatch.setattr(executor, "_retry_in_isolation", spy)
    faulted_store = ResultStore(str(tmp_path / "faulted"))
    ctx = ExecutionContext(
        jobs=2,
        store=faulted_store,
        fault_plan=plan,
        timeout=2.0 if kind == "hang" else None,
    )
    faulted = execute_experiments(specs, ctx)

    assert plan.fired_sites() == [f"unit:e4-quick:{target.unit_id}"]
    # A crash breaks the pool under the unit running beside it too, so
    # that one may get its own isolated retry; nothing else does.
    assert (target.unit_id, kind == "hang") in retried
    assert len(retried) <= ctx.jobs
    assert [r.payload for r in faulted] == [r.payload for r in clean]
    for name in names:
        with open(faulted_store.summary_path(f"{name}-quick"), "rb") as faulted_summary:
            with open(clean_store.summary_path(f"{name}-quick"), "rb") as clean_summary:
                assert faulted_summary.read() == clean_summary.read(), name


def test_emit_sees_results_in_spec_order():
    specs = [ExperimentSpec(name=name, variant="quick") for name in ("e6", "e1", "e3")]
    emitted = []
    results = execute_experiments(specs, ExecutionContext(jobs=2), emitted.append)
    assert [r.spec.name for r in emitted] == ["e6", "e1", "e3"]
    assert emitted == results


def _census_worker(unit):
    return experiment_module("e1").run_unit(unit)


_census_worker.engine_modules = ("colorsys",)


def test_a_pool_imports_the_engine_modules_of_its_workers_first(monkeypatch):
    monkeypatch.delitem(sys.modules, "colorsys", raising=False)
    seen = []
    make_pool = executor.make_pool

    def checking(jobs):
        seen.append("colorsys" in sys.modules)
        return make_pool(jobs)

    monkeypatch.setattr(executor, "make_pool", checking)
    campaign = build_campaign("e1", "quick")
    report = executor.run_campaign(campaign, _census_worker, ExecutionContext(jobs=2))
    assert seen == [True]
    assert [record["status"] for record in report.records] == ["ok"] * campaign.num_units
