"""Tests for the parallel experiment-campaign subsystem."""

import json
import os
import sys

import pytest

from repro.campaign import (
    ExecutionContext,
    ResultStore,
    build_campaign,
    build_cells_campaign,
    derive_seed,
    execute_batch,
    run_campaign,
    run_experiment_campaign,
)
from repro.campaign import executor as executor_module
from repro.campaign import store as store_module
from repro.campaign.executor import _worker_name, execute_unit
from repro.experiments.e1_configuration_census import run_unit as e1_run_unit


# Workers live at module level so the process pool can pickle them by
# reference.
def product_worker(unit):
    return {"row": [unit["k"], unit["n"], unit["k"] * unit["n"]], "passed": True}


def tagged_worker(unit):
    return {"row": [unit["k"], unit["n"], "second-run"], "passed": True}


def flaky_worker(unit):
    if unit["k"] == 5:
        raise ValueError(f"boom on {unit['unit_id']}")
    return product_worker(unit)


#: Switched by the resume test: the same worker (same cache identity)
#: fails on k == 5 in the first run and tags its payload in the second.
_RESUMED_RUN = False


def resumable_worker(unit):
    if not _RESUMED_RUN:
        return flaky_worker(unit)
    return tagged_worker(unit)


def crashing_worker(unit):
    if unit["k"] == 5 and unit["n"] == 12:
        os._exit(3)  # simulate a hard worker death (not an exception)
    return product_worker(unit)


def _strip_durations(records):
    return [{key: value for key, value in r.items() if key != "duration_s"} for r in records]


class TestSpec:
    def test_build_campaign_grid_matches_suite(self):
        campaign = build_campaign("e7", "quick")
        assert campaign.name == "e7-quick"
        assert campaign.num_units == 6
        assert [u.index for u in campaign.units] == list(range(6))
        assert campaign.units[0].unit_id == "u000-k005-n012"

    def test_unit_ids_unique_even_for_duplicate_pairs(self):
        # The e7 full sweep contains (8, 30) twice (the n-sweep at fixed
        # k and the k-sweep at fixed n); ids and seeds must not collide
        # or resume would silently drop one grid cell.
        campaign = build_campaign("e7", "full")
        ids = [u.unit_id for u in campaign.units]
        assert len(set(ids)) == len(ids)
        duplicates = [u for u in campaign.units if (u.k, u.n) == (8, 30)]
        assert len(duplicates) == 2
        assert duplicates[0].seed != duplicates[1].seed

    def test_seeds_are_stable_and_distinct(self):
        campaign = build_campaign("e7", "quick")
        again = build_campaign("e7", "quick")
        assert [u.seed for u in campaign.units] == [u.seed for u in again.units]
        assert len({u.seed for u in campaign.units}) == campaign.num_units
        # Stable hash, not PYTHONHASHSEED-dependent hash():
        assert derive_seed(1, "e7", "quick", 5, 12) == derive_seed(1, "e7", "quick", 5, 12)
        assert derive_seed(1, "e7", "quick", 5, 12) != derive_seed(2, "e7", "quick", 5, 12)

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            build_campaign("e99")

    def test_cells_campaign_carries_extra_parameters(self):
        campaign = build_cells_campaign(
            "verify", "demo", "d", [(3, 6), (4, 8)],
            extra=(("task", "gathering"), ("adversary", "ssync")),
        )
        assert campaign.num_units == 2
        assert campaign.units[0].unit_id == "u000-k003-n006"
        unit = campaign.units[1].as_dict()
        assert unit["extra"] == {"task": "gathering", "adversary": "ssync"}
        # Same cells, same ids and seeds — the resume invariant.
        again = build_cells_campaign("verify", "demo", "d", [(3, 6), (4, 8)])
        assert [u.seed for u in again.units] == [u.seed for u in campaign.units]

    def test_default_units_have_empty_extra(self):
        campaign = build_campaign("e7", "quick")
        assert campaign.units[0].as_dict()["extra"] == {}


class TestDeterminism:
    def test_serial_and_parallel_aggregates_are_byte_identical(self, tmp_path):
        serial = run_experiment_campaign(
            "e1", "quick", e1_run_unit, ExecutionContext(jobs=1, store=str(tmp_path / "serial")),
        )
        parallel = run_experiment_campaign(
            "e1", "quick", e1_run_unit, ExecutionContext(jobs=3, store=str(tmp_path / "parallel")),
        )
        assert serial.summary_bytes() == parallel.summary_bytes()
        with open(serial.summary_path, "rb") as f1, open(parallel.summary_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_records_come_back_in_grid_order(self):
        report = run_campaign(
            build_campaign("e1", "quick"), product_worker, ExecutionContext(jobs=2),
        )
        assert [r["index"] for r in report.records] == list(range(6))
        assert not report.failures


class TestResume:
    def test_resume_skips_completed_units(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        first = run_experiment_campaign(
            "e7", "quick", resumable_worker, ExecutionContext(jobs=1, store=store),
        )
        failed = {r["unit_id"] for r in first.failures}
        assert failed  # k == 5 units errored
        # Second run of the same worker, now tagging its payloads: only
        # the failed units are re-executed, completed ones come back
        # verbatim from disk.
        monkeypatch.setattr(sys.modules[__name__], "_RESUMED_RUN", True)
        second = run_experiment_campaign(
            "e7", "quick", resumable_worker,
            ExecutionContext(jobs=1, store=ResultStore(str(tmp_path))),
        )
        assert set(second.resumed) == {
            r["unit_id"] for r in first.records if r["status"] == "ok"
        }
        for record in second.records:
            expected = "second-run" if record["unit_id"] in failed else record["k"] * record["n"]
            assert record["payload"]["row"][2] == expected
        assert not second.failures

    @pytest.mark.parametrize("corruption", ["truncated", "empty", "non-object", "error-status"])
    def test_corrupt_entry_reruns_only_that_unit(self, tmp_path, corruption):
        campaign = build_campaign("e1", "quick")
        clean = run_campaign(
            campaign, product_worker, ExecutionContext(store=str(tmp_path / "clean"))
        )
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(campaign, product_worker, ExecutionContext(store=store))
        units = store.units(campaign.name)
        victim = campaign.units[2]
        path = units._path(units.unit_key(_worker_name(product_worker), victim.as_dict()))
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        damaged = {
            "truncated": text[: len(text) // 2],
            "empty": "",
            "non-object": json.dumps([1, 2, 3]),
            "error-status": json.dumps({"status": "error", "payload": None}),
        }[corruption]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(damaged)
        resumed = run_campaign(campaign, product_worker, ExecutionContext(store=store))
        assert set(resumed.resumed) == {u.unit_id for u in campaign.units} - {victim.unit_id}
        with open(clean.summary_path, "rb") as f1, open(resumed.summary_path, "rb") as f2:
            assert f1.read() == f2.read()
        # The re-run unit was written back: a third run resumes everything.
        again = run_campaign(campaign, product_worker, ExecutionContext(store=store))
        assert len(again.resumed) == campaign.num_units

    def test_different_worker_identity_reruns_every_unit(self, tmp_path):
        campaign = build_campaign("e1", "quick")
        run_campaign(campaign, product_worker, ExecutionContext(store=str(tmp_path)))
        other = run_campaign(campaign, tagged_worker, ExecutionContext(store=str(tmp_path)))
        assert other.resumed == []
        assert all(r["payload"]["row"][2] == "second-run" for r in other.records)

    def test_cache_hit_is_written_to_the_store(self, tmp_path):
        campaign = build_campaign("e1", "quick")
        cache = str(tmp_path / "cache")
        run_campaign(campaign, product_worker, ExecutionContext(cache=cache))
        store = str(tmp_path / "store")
        served = run_campaign(campaign, product_worker, ExecutionContext(store=store, cache=cache))
        assert len(served.cached) == campaign.num_units and served.resumed == []
        # Without the cache, the next run resumes every unit from the store.
        resumed = run_campaign(campaign, product_worker, ExecutionContext(store=store))
        assert len(resumed.resumed) == campaign.num_units and resumed.cached == []
        assert resumed.summary_bytes() == served.summary_bytes()

    @pytest.mark.parametrize("knobs", [{"jobs": 2}, {"timeout": 60.0}], ids=["pool", "deadline"])
    def test_pool_paths_store_every_unit(self, tmp_path, knobs):
        campaign = build_campaign("e1", "quick")
        first = run_campaign(campaign, product_worker, ExecutionContext(store=str(tmp_path), **knobs))
        resumed = run_campaign(campaign, product_worker, ExecutionContext(store=str(tmp_path)))
        assert len(resumed.resumed) == campaign.num_units
        assert resumed.summary_bytes() == first.summary_bytes()

    def test_store_unit_writes_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(executor_module, "fsync_file", synced.append)
        campaign = build_campaign("e1", "quick")
        cache = str(tmp_path / "cache")
        run_campaign(campaign, product_worker, ExecutionContext(cache=cache))
        assert synced == []  # the shared cache is not fsync'd
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(campaign, product_worker, ExecutionContext(store=store, cache=cache))
        units_dir = os.path.join(store.campaign_dir(campaign.name), "units")
        assert len(synced) == campaign.num_units
        assert all(path.startswith(units_dir + os.sep) for path in synced)

    def test_dynamically_defined_worker_rejects_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="<lambda>"):
            run_campaign(
                build_campaign("e1", "quick"),
                lambda unit: product_worker(unit),
                ExecutionContext(store=str(tmp_path)),
            )

    def test_summary_document_strips_durations(self, tmp_path):
        store = ResultStore(str(tmp_path))
        campaign = build_campaign("e1", "quick")
        report = run_campaign(campaign, product_worker, ExecutionContext(store=store))
        with open(report.summary_path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["num_completed"] == campaign.num_units
        assert all("duration_s" not in unit for unit in summary["units"])

    def test_failed_summary_write_keeps_the_old_summary(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        campaign = build_campaign("e1", "quick")
        report = run_campaign(campaign, product_worker, ExecutionContext(store=store))
        with open(report.summary_path, "rb") as handle:
            before = handle.read()

        def failing_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(store_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk gone"):
            store.write_summary(campaign, report.records[:2])
        with open(report.summary_path, "rb") as handle:
            assert handle.read() == before
        # ... and the temp file does not linger.
        assert sorted(os.listdir(store.campaign_dir(campaign.name))) == ["summary.json", "units"]


class TestFailureReporting:
    def test_worker_exception_is_recorded_not_raised(self):
        report = run_campaign(build_campaign("e7", "quick"), flaky_worker, ExecutionContext(jobs=1))
        failed = [r for r in report.records if r["status"] == "error"]
        assert failed and all(r["k"] == 5 for r in failed)
        assert "boom" in failed[0]["error"]["message"]
        assert "ValueError" in failed[0]["error"]["traceback"]
        ok = [r for r in report.records if r["status"] == "ok"]
        assert len(ok) + len(failed) == report.campaign.num_units

    def test_worker_exception_in_parallel_mode(self):
        report = run_campaign(build_campaign("e7", "quick"), flaky_worker, ExecutionContext(jobs=2))
        assert {r["unit_id"] for r in report.failures} == {
            r["unit_id"]
            for r in run_campaign(
                build_campaign("e7", "quick"), flaky_worker, ExecutionContext(jobs=1),
            ).failures
        }

    def test_error_records_byte_identical_in_parallel_mode(self):
        # Chunks run through ``execute_batch`` in the pool; the error
        # records (status, message, traceback) must match the serial run.
        serial = run_campaign(build_campaign("e7", "quick"), flaky_worker, ExecutionContext(jobs=1))
        pooled = run_campaign(
            build_campaign("e7", "quick"), flaky_worker, ExecutionContext(jobs=2), chunk_size=2,
        )
        assert pooled.summary_bytes() == serial.summary_bytes()
        assert {r["status"] for r in pooled.records} == {"ok", "error"}

    def test_worker_process_crash_survived(self):
        # os._exit kills the worker process outright; the executor must
        # rebuild the pool, isolate the poisoned unit and keep the rest.
        report = run_campaign(
            build_campaign("e7", "quick"), crashing_worker, ExecutionContext(jobs=2), chunk_size=2,
        )
        assert len(report.records) == report.campaign.num_units
        crashed = [r for r in report.records if r["status"] == "crashed"]
        assert [r["unit_id"] for r in crashed] == ["u000-k005-n012"]
        ok = [r for r in report.records if r["status"] == "ok"]
        assert len(ok) == report.campaign.num_units - 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(build_campaign("e1", "quick"), product_worker, ExecutionContext(jobs=0))


class TestChunkRunner:
    def test_execute_batch_matches_execute_unit(self):
        units = [
            {"index": i, "unit_id": f"u{i}", "k": k, "n": 7 + i, "samples": 1}
            for i, k in enumerate([3, 5, 4, 5])
        ]
        batched = execute_batch(flaky_worker, units)
        single = [execute_unit(flaky_worker, unit) for unit in units]
        assert [r["status"] for r in batched] == ["ok", "error", "ok", "error"]
        assert batched[1]["error"]["message"] == "boom on u1"
        assert _strip_durations(batched) == _strip_durations(single)
