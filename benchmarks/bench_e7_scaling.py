"""Benchmark E7 — the scaling experiment, driven through the campaign layer.

E7 is the heaviest quick-suite experiment and its ``(k, n)`` grid is
embarrassingly parallel, so this benchmark exercises the
``repro.campaign`` executor end to end: a timed serial pass (the
median of five in script mode), a serial-vs-parallel determinism check, and — on machines with enough
cores — the wall-clock speedup of ``--jobs 4`` over ``--jobs 1``.

In script mode (``python benchmarks/bench_e7_scaling.py``) the measured
speedup is recorded in ``BENCH_e7.json``; set ``BENCH_REQUIRE_SPEEDUP=1``
(as the CI smoke job does on multi-core runners) to fail the run when
the parallel campaign is not at least 2x faster.
"""

import os
import time

import pytest

from repro.campaign import ExecutionContext, build_campaign, run_campaign
from repro.experiments.e7_scaling import run_unit


def _run_quick_campaign(jobs):
    report = run_campaign(build_campaign("e7", "quick"), run_unit, ExecutionContext(jobs=jobs))
    assert not report.failures
    return report


def _timed_quick_campaign(jobs):
    started = time.perf_counter()
    report = _run_quick_campaign(jobs)
    return time.perf_counter() - started, report


def test_e7_quick_campaign_serial(benchmark):
    report = benchmark.pedantic(_run_quick_campaign, args=(1,), rounds=1, iterations=1)
    assert len(report.records) == report.campaign.num_units
    moves_per_nk = [record["payload"]["row"][3] for record in report.records]
    # Align moves / (n*k) stays bounded by a small constant (paper shape).
    assert all(ratio <= 2.0 for ratio in moves_per_nk)


def test_e7_campaign_parallel_matches_serial():
    serial = _run_quick_campaign(1)
    parallel = _run_quick_campaign(2)
    assert serial.summary_bytes() == parallel.summary_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 cores")
def test_e7_campaign_parallel_speedup():
    serial_s, _ = _timed_quick_campaign(1)
    parallel_s, _ = _timed_quick_campaign(4)
    assert parallel_s < serial_s / 2, (
        f"expected >= 2x speedup at --jobs 4: serial {serial_s:.2f}s, "
        f"parallel {parallel_s:.2f}s"
    )


def main():
    from _harness import emit

    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)
    serial_s, _ = _timed_quick_campaign(1)
    parallel_s, _ = _timed_quick_campaign(jobs)
    from _harness import safe_rate

    # 0.0 (never inf) when the clock measured no parallel time at all,
    # keeping BENCH_e7.json strict-JSON on coarse clocks.
    speedup = safe_rate(serial_s, parallel_s)
    print(
        f"[bench e7] campaign quick suite: serial {serial_s:.2f}s, "
        f"--jobs {jobs} {parallel_s:.2f}s, speedup {speedup:.2f}x "
        f"({cpus} core(s))"
    )
    if os.environ.get("BENCH_REQUIRE_SPEEDUP") == "1" and cpus >= 4:
        assert speedup >= 2.0, (
            f"parallel campaign speedup {speedup:.2f}x below the required 2x"
        )
    emit(
        "e7",
        {"campaign-quick-serial": lambda: _run_quick_campaign(1)},
        repeats=5,
        extra={
            "campaign_jobs": jobs,
            "campaign_serial_s": round(serial_s, 6),
            "campaign_parallel_s": round(parallel_s, 6),
            "campaign_speedup": round(speedup, 3),
        },
    )


if __name__ == "__main__":
    main()
