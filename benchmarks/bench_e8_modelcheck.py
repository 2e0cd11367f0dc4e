"""Benchmark E8 — exhaustive adversarial model checker throughput."""

import pytest

from repro.modelcheck import ModelChecker, Verdict, check_cell
from repro.modelcheck.tasks import make_task_spec


def _gathering_grid_n8():
    results = [
        check_cell("gathering", n, k)
        for n in range(6, 9)
        for k in range(3, n - 2)
    ]
    assert all(r.verdict is Verdict.SOLVED for r in results)
    return results


def test_modelcheck_gathering_grid(benchmark):
    results = benchmark(_gathering_grid_n8)
    assert len(results) == 6


def test_modelcheck_ring_clearing_cell(benchmark):
    result = benchmark(check_cell, "searching", 13, 6)
    assert result.verdict is Verdict.SOLVED
    assert result.num_states > 300


def test_modelcheck_smoke_cell_counterexample(benchmark):
    """The CI smoke cell: k=3, n=6 ring-clearing is infeasible (Theorem 5)."""
    result = benchmark(check_cell, "searching", 6, 3)
    assert result.verdict in (Verdict.COLLISION, Verdict.LIVELOCK)
    assert result.witness is not None


def _cold(task, n, k):
    """One cell from empty plan and expansion tables.

    A caller-built task spec keeps the checker off the process-wide cell
    cache, so every repeat pays plan computation like a cold process.
    """
    return ModelChecker(task, n, k, spec=make_task_spec(task, n, k)).run()


def _gathering_grid_n9_13_cold():
    results = [_cold("gathering", n, k) for n in range(9, 14) for k in range(3, n - 2)]
    assert all(r.verdict is Verdict.SOLVED for r in results)
    return results


def main():
    from _harness import emit

    throughput = {}

    def searching_8x18_cold():
        result = _cold("searching", 18, 8)
        assert result.verdict is Verdict.SOLVED
        throughput["states_per_sec_searching_8x18_cold"] = round(result.states_per_second, 1)
        return result

    # Cold rows: warm cells finish in a few milliseconds, below what
    # tools/bench_compare.py gates.
    emit(
        "e8",
        {
            "verify-gathering-grid-n9-13-cold": _gathering_grid_n9_13_cold,
            "verify-searching-8x18-cold": searching_8x18_cold,
        },
        extra=throughput,
    )


if __name__ == "__main__":
    main()
