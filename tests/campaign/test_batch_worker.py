"""Tests for whole-batch unit claiming in the campaign executor."""

from repro.campaign import ExecutionContext, build_campaign, execute_batch, run_campaign
from repro.experiments.e7_scaling import run_unit, run_units_batched


# Module-level workers so the process pool can pickle them by reference.
def product_worker(unit):
    return {"row": [unit["k"], unit["n"], unit["k"] * unit["n"]], "passed": True}


def batched_product_worker(units):
    return [product_worker(unit) for unit in units]


def raising_batch_worker(units):
    raise RuntimeError("batch path unavailable")


def short_batch_worker(units):
    return [product_worker(unit) for unit in units[:-1]]


def flaky_worker(unit):
    if unit["k"] == 8:
        raise ValueError(f"boom on {unit['unit_id']}")
    return product_worker(unit)


def _strip_volatile(records):
    return [
        {key: value for key, value in record.items() if key != "duration_s"}
        for record in records
    ]


class TestBatchClaiming:
    def test_summary_identical_with_and_without_batch_worker(self):
        campaign = build_campaign("e7", "quick")
        plain = run_campaign(campaign, product_worker)
        batched = run_campaign(
            campaign, product_worker, batch_worker=batched_product_worker
        )
        assert batched.summary_bytes() == plain.summary_bytes()

    def test_parallel_batched_summary_identical(self):
        campaign = build_campaign("e7", "quick")
        plain = run_campaign(campaign, product_worker)
        batched = run_campaign(
            campaign, product_worker, ExecutionContext(jobs=2), batch_worker=batched_product_worker,
        )
        assert batched.summary_bytes() == plain.summary_bytes()

    def test_raising_batch_worker_falls_back_per_unit(self):
        campaign = build_campaign("e7", "quick")
        plain = run_campaign(campaign, flaky_worker)
        batched = run_campaign(
            campaign, flaky_worker, batch_worker=raising_batch_worker
        )
        # Error records (status, message, traceback) survive byte-identically
        # because the fallback path *is* the per-unit path.
        assert batched.summary_bytes() == plain.summary_bytes()
        assert {r["status"] for r in batched.records} == {"ok", "error"}

    def test_wrong_payload_count_falls_back(self):
        units = [
            {"index": i, "unit_id": f"u{i}", "k": 2, "n": 5 + i, "samples": 1}
            for i in range(3)
        ]
        records = execute_batch(product_worker, short_batch_worker, units)
        assert _strip_volatile(records) == _strip_volatile(
            [dict(u, status="ok", payload=product_worker(u), error=None) for u in units]
        )

    def test_batch_records_match_unit_records(self):
        units = [
            {"index": i, "unit_id": f"u{i}", "k": 3, "n": 7 + i, "samples": 1}
            for i in range(4)
        ]
        batched = execute_batch(product_worker, batched_product_worker, units)
        plain = execute_batch(product_worker, None, units)
        assert _strip_volatile(batched) == _strip_volatile(plain)


class TestE7BatchedWorker:
    def test_payloads_byte_identical_to_per_unit(self):
        units = [
            {"k": 5, "n": 12, "samples": 3, "seed": 11, "steps_factor": 10},
            {"k": 4, "n": 10, "samples": 3, "seed": 23, "steps_factor": 10},
        ]
        assert run_units_batched(units) == [run_unit(unit) for unit in units]
