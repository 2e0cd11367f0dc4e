"""Batched simulation: one E7 scaling cell, two ways.

The E7 experiment measures how many moves Align needs to converge and
what a full ring clearing costs on each ``(k, n)`` cell.  Every sample of
a cell is an independent simulation — which is exactly the shape the
batched engine (:mod:`repro.batchsim`) exploits: all samples advance as
lanes of one engine that shares planner work across the whole batch,
while producing byte-identical traces to one-at-a-time runs.

This example measures one cell both ways — one ``Simulator`` per sample
and one ``BatchEngine`` for all of them — checks that the statistics are
identical (and equal to the row E7's campaign worker reports), and
prints the measured speedup.  (The speedup here is modest compared to
``benchmarks/bench_batchsim.py`` — a cell this small spends little time
simulating; the benchmark's batch-of-64 heaviest cell is where batching
pays.)

Usage::

    python examples/batch_sweep.py [n] [k] [samples]
"""

import random
import sys
import time

from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.ring_clearing import RingClearingAlgorithm, ring_clearing_supported
from repro.analysis.metrics import clearing_metrics, summarize
from repro.batchsim import BatchEngine
from repro.experiments.e7_scaling import run_unit
from repro.simulator.engine import Simulator
from repro.tasks import SearchingMonitor
from repro.workloads.generators import random_rigid_configuration


def starts(n, k, samples, seed):
    rng = random.Random(seed)
    return [random_rigid_configuration(n, k, rng) for _ in range(samples)]


def align_per_run(configurations, budget):
    moves = []
    for configuration in configurations:
        engine = Simulator(AlignAlgorithm(), configuration)
        trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), budget)
        moves.append(trace.total_moves)
    return summarize(moves)


def align_batched(configurations, budget):
    engine = BatchEngine(AlignAlgorithm(), configurations, record_events=False)
    engine.run_until_configuration(lambda c: c.is_c_star(), budget, invariant=True)
    return summarize([engine.lane(i).total_moves for i in range(len(configurations))])


def clearing_per_run(configurations, steps):
    costs = []
    for configuration in configurations:
        searching = SearchingMonitor()
        engine = Simulator(RingClearingAlgorithm(), configuration, monitors=[searching])
        engine.run(steps)
        cost = clearing_metrics(searching).moves_to_full_clear
        if cost is not None:
            costs.append(cost)
    return summarize(costs)


def clearing_batched(configurations, steps):
    searchers = [SearchingMonitor() for _ in configurations]
    engine = BatchEngine(
        RingClearingAlgorithm(),
        configurations,
        monitors_factory=lambda i: [searchers[i]],
        record_events=False,
    )
    engine.run(steps)
    costs = []
    for searching in searchers:
        cost = clearing_metrics(searching).moves_to_full_clear
        if cost is not None:
            costs.append(cost)
    return summarize(costs)


def timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    samples = int(sys.argv[3]) if len(sys.argv) > 3 else 8
    if not ring_clearing_supported(n, k):
        sys.exit(f"Ring Clearing does not support (k={k}, n={n})")
    seed, steps_factor = 20130701, 30
    print(f"E7 cell (k={k}, n={n}), {samples} samples per measure")

    # The same draws E7's worker makes: Align from `seed`, clearing from
    # `seed + 2` with half the samples (at least two).
    align_starts = starts(n, k, samples, seed)
    clear_starts = starts(n, k, max(2, samples // 2), seed + 2)
    budget, steps = 40 * n * k + 200, steps_factor * n * k

    align_ref, align_ref_s = timed(align_per_run, align_starts, budget)
    align_fast, align_fast_s = timed(align_batched, align_starts, budget)
    clear_ref, clear_ref_s = timed(clearing_per_run, clear_starts, steps)
    clear_fast, clear_fast_s = timed(clearing_batched, clear_starts, steps)
    assert align_fast == align_ref, "batched Align statistics diverged"
    assert clear_fast == clear_ref, "batched clearing statistics diverged"

    row = run_unit(
        {"k": k, "n": n, "samples": samples, "seed": seed, "steps_factor": steps_factor}
    )["row"]
    assert row[2] == align_ref["mean"] and row[5] == clear_ref["mean"], (
        "E7's campaign worker reports different statistics"
    )

    for label, ref, ref_s, fast_s in (
        ("align moves", align_ref, align_ref_s, align_fast_s),
        ("clear cost", clear_ref, clear_ref_s, clear_fast_s),
    ):
        print(f"  {label:>11}: mean {ref['mean']:.2f}  "
              f"per-run {ref_s:.2f}s  batched {fast_s:.2f}s  "
              f"speedup {ref_s / fast_s:.1f}x")
    print("statistics identical across both paths and E7's worker row")


if __name__ == "__main__":
    main()
