"""Benchmark — the frontier engine and the game solver.

Times the hot paths of the model checker's frontier exploration and the
E6 adversary game solver, and records:

* ``verify-searching-rc-7x14-warm-x64`` and
  ``frontier-searching-6x15-warm-x64`` — warm cells (the persistent
  per-cell plan caches are filled by the first call), each run
  :data:`WARM_REPEATS` times per timed run so the row lasts long enough
  to gate; the medians pin down engine mechanics: BFS, canonicalisation
  and the livelock search with its pre-proof;
* ``verify-gathering-8x18`` — one gathering cell from an empty cell
  cache on every repeat, so the row pays plan computation the way a
  cold ``repro verify`` process does;
* ``states_per_second`` — explored states over the median wall time of
  one warm cell (a warm row's median over :data:`WARM_REPEATS`);
* the speedups against the pre-rewrite committed baselines, carried
  over from the packed-state rewrite.

The warm 6x13 checker cell and the game solver (gated through
``BENCH_e6.json``) are measured inline for the speedup table only.
"""

import json
import statistics
import time

from repro.analysis.game import searching_game_verdict
from repro.modelcheck import ModelChecker, Verdict, check_cell
from repro.modelcheck.tasks import make_task_spec

#: Pre-rewrite medians of the same workloads, taken from the committed
#: ``benchmarks/baselines.json`` (e6/e8 sections) before the packed
#: frontier engine landed, on the 1-core reference container.  The
#: 7x14 frontier cell was measured once on the same container with the
#: tuple-state engine (it was not part of any suite yet).
PRE_REWRITE_BASELINE = {
    "verify-searching-rc-6x13": 0.135243,
    "verify-searching-rc-7x14": 0.35,
    "game-solver-n6-k3": 0.262711,
}


def _searching_6x13():
    result = check_cell("searching", 13, 6)
    assert result.verdict is Verdict.SOLVED
    return result


def _searching_7x14():
    result = check_cell("searching", 14, 7)
    assert result.verdict is Verdict.SOLVED
    return result


def _frontier_6x15():
    """The frontier-throughput cell: one (k, n) past the 7x14 frontier cell's k-1 row."""
    result = check_cell("searching", 15, 6)
    assert result.verdict is Verdict.SOLVED
    return result


def _gathering_8x18_cold():
    """Gathering k=8 on n=18 with every plan recomputed.

    A caller-built task spec keeps the checker off the process-wide cell
    cache, so each call starts from empty plan and expansion tables.
    """
    spec = make_task_spec("gathering", 18, 8)
    result = ModelChecker("gathering", 18, 8, spec=spec).run()
    assert result.verdict is Verdict.SOLVED
    return result


def _game_solver_6x3():
    result = searching_game_verdict(6, 3)
    assert result.verdict.value == "impossible"
    return result


def test_frontier_searching_cell(benchmark):
    result = benchmark(_searching_6x13)
    assert result.num_states > 300


def test_frontier_new_frontier_cell_7x14(benchmark):
    """The cell beyond the previous feasible frontier (E8 full suite)."""
    result = benchmark(_searching_7x14)
    assert result.num_states > 500


def test_frontier_game_solver(benchmark):
    result = benchmark(_game_solver_6x3)
    assert result.algorithms_checked == 324


def test_frontier_throughput_cell_6x15(benchmark):
    result = benchmark(_frontier_6x15)
    assert result.num_states > 500


def test_cold_gathering_cell_8x18(benchmark):
    result = benchmark(_gathering_8x18_cold)
    assert result.num_states > 1000


def _median_seconds(workload, repeats=3):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        workload()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


#: Warm cells whose explored-state rates are reported.
WARM_CELLS = {
    "verify-searching-rc-7x14": _searching_7x14,
    "frontier-searching-6x15": _frontier_6x15,
}

#: A warm cell takes ~5 ms, under ``tools/bench_compare.py``'s
#: ``MIN_COMPARABLE_S``; each warm row runs its cell this many times.
WARM_REPEATS = 64


def _repeated(cell):
    def workload():
        for _ in range(WARM_REPEATS):
            cell()

    return workload


def main():
    from _harness import emit, safe_rate

    workloads = {
        f"{cell}-warm-x{WARM_REPEATS}": _repeated(workload)
        for cell, workload in WARM_CELLS.items()
    }
    workloads["verify-gathering-8x18"] = _gathering_8x18_cold
    path = emit("modelcheck", workloads)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    medians = {name: data["median_s"] for name, data in document["workloads"].items()}
    for cell in WARM_CELLS:
        medians[cell] = medians[f"{cell}-warm-x{WARM_REPEATS}"] / WARM_REPEATS
    cell_states = {cell: workload().num_states for cell, workload in WARM_CELLS.items()}
    # Measured for the speedup table only (the game solver is gated via BENCH_e6).
    medians["verify-searching-rc-6x13"] = _median_seconds(_searching_6x13)
    medians["game-solver-n6-k3"] = _median_seconds(_game_solver_6x3)

    document.update(
        {
            "speedup_vs_pre_rewrite": {
                name: round(safe_rate(PRE_REWRITE_BASELINE[name], medians[name]), 2)
                for name in PRE_REWRITE_BASELINE
            },
            "states_per_second": {
                cell: round(safe_rate(cell_states[cell], medians[cell]), 1)
                for cell in WARM_CELLS
            },
            "speedup_note": (
                "speedup_vs_pre_rewrite compares against the committed "
                "tuple-state-engine baselines measured on the 1-core "
                "reference container."
            ),
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, ratio in sorted(document["speedup_vs_pre_rewrite"].items()):
        print(f"[bench modelcheck] {name}: {ratio}x vs pre-rewrite baseline")


if __name__ == "__main__":
    main()
