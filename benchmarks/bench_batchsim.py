"""Benchmark — batched simulation engine vs per-run simulation.

Times the heaviest E7 scaling cell (n=24, k=8; the ``batchsim`` suite in
:mod:`repro.workloads.suites`) through both execution paths on one core:

* ``per-run-*`` — one :class:`~repro.simulator.engine.Simulator` per
  seed, the way the campaign layer ran before batching;
* ``batch-*`` — all seeds as lanes of one
  :class:`~repro.batchsim.BatchEngine` (shared canonical plan table,
  invariant-stop memoisation, periodic-orbit fast-forward).

Both paths produce byte-identical results (asserted here on the move
aggregates; the full trace contract is certified by
``tests/batchsim/test_differential.py``), so the emitted
``BENCH_batchsim.json`` speedups compare equal work.  The headline
``speedup.combined`` must stay >= ``REQUIRED_SPEEDUP`` when
``BENCH_REQUIRE_SPEEDUP=1`` (CI).
"""

import random

from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.ring_clearing import RingClearingAlgorithm
from repro.batchsim import BatchEngine
from repro.simulator.engine import Simulator
from repro.workloads.generators import random_rigid_configuration
from repro.workloads.suites import get_suite

#: The measured cell and batch size come from the ``batchsim`` suite.
SUITE = get_suite("batchsim", "quick")
K, N = SUITE.pairs[0]
BATCH = SUITE.samples_per_pair

#: Align convergence budget (the E7 campaign's own budget formula).
ALIGN_BUDGET = 40 * N * K + 200

#: Perpetual ring-clearing step budget per lane.
CLEARING_STEPS = SUITE.steps_factor * N * K

#: Minimal accepted combined speedup on the 1-core reference container.
REQUIRED_SPEEDUP = 20.0


def _configurations(offset):
    return [
        random_rigid_configuration(N, K, random.Random(offset + i))
        for i in range(BATCH)
    ]


def batch_align():
    engine = BatchEngine(
        AlignAlgorithm(), _configurations(1000), record_events=False
    )
    engine.run_until_configuration(
        lambda c: c.is_c_star(), ALIGN_BUDGET, invariant=True
    )
    return [engine.lane(i).total_moves for i in range(BATCH)]


def per_run_align():
    moves = []
    for configuration in _configurations(1000):
        engine = Simulator(AlignAlgorithm(), configuration)
        trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), ALIGN_BUDGET)
        moves.append(trace.total_moves)
    return moves


def batch_clearing():
    engine = BatchEngine(
        RingClearingAlgorithm(), _configurations(2000), record_events=False
    )
    engine.run(CLEARING_STEPS)
    return [engine.lane(i).total_moves for i in range(BATCH)]


def per_run_clearing():
    moves = []
    for configuration in _configurations(2000):
        engine = Simulator(RingClearingAlgorithm(), configuration)
        engine.run(CLEARING_STEPS)
        moves.append(engine.trace.total_moves)
    return moves


def test_batch_align_matches_per_run(benchmark):
    assert benchmark(batch_align) == per_run_align()


def test_batch_clearing_matches_per_run(benchmark):
    assert benchmark(batch_clearing) == per_run_clearing()


def main():
    import json
    import os
    import sys

    from _harness import emit, safe_rate

    # The speedup claim is only meaningful for equal work: assert the
    # batched aggregates match per-run before timing anything.
    assert batch_align() == per_run_align()
    assert batch_clearing() == per_run_clearing()

    path = emit(
        "batchsim",
        {
            f"batch-align-n{N}-k{K}": batch_align,
            f"per-run-align-n{N}-k{K}": per_run_align,
            f"batch-clearing-n{N}-k{K}": batch_clearing,
            f"per-run-clearing-n{N}-k{K}": per_run_clearing,
        },
    )
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    medians = {name: data["median_s"] for name, data in document["workloads"].items()}
    batch_total = medians[f"batch-align-n{N}-k{K}"] + medians[f"batch-clearing-n{N}-k{K}"]
    per_run_total = (
        medians[f"per-run-align-n{N}-k{K}"] + medians[f"per-run-clearing-n{N}-k{K}"]
    )
    speedups = {
        "align": round(
            safe_rate(medians[f"per-run-align-n{N}-k{K}"], medians[f"batch-align-n{N}-k{K}"]), 2
        ),
        "clearing": round(
            safe_rate(
                medians[f"per-run-clearing-n{N}-k{K}"], medians[f"batch-clearing-n{N}-k{K}"]
            ),
            2,
        ),
        "combined": round(safe_rate(per_run_total, batch_total), 2),
    }
    document.update(
        {
            "cell": {"n": N, "k": K, "batch": BATCH},
            "runs_per_sec": {
                "batched": round(safe_rate(2 * BATCH, batch_total), 1),
                "per_run": round(safe_rate(2 * BATCH, per_run_total), 1),
            },
            "speedup": speedups,
            "required_speedup": REQUIRED_SPEEDUP,
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"[bench batchsim] speedup: align {speedups['align']}x, "
        f"clearing {speedups['clearing']}x, combined {speedups['combined']}x",
        file=sys.stderr,
    )
    if os.environ.get("BENCH_REQUIRE_SPEEDUP") == "1":
        assert speedups["combined"] >= REQUIRED_SPEEDUP, (
            f"batched engine speedup {speedups['combined']}x fell below the "
            f"{REQUIRED_SPEEDUP}x gate on the (n={N}, k={K}) cell"
        )


if __name__ == "__main__":
    main()
