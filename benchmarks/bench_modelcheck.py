"""Benchmark — frontier engines (packed + vector) and the game solver.

Times the hot paths of the model checker's frontier exploration — once
per engine backend — and the E6 adversary game solver, and records:

* per-backend rows (``-packed`` / ``-vector`` suffixes) for the 7x14
  verification cell and the 6x15 frontier-throughput cell, so the gated
  medians pin down each engine separately;
* ``verify-gathering-8x18`` — one gathering cell from an empty cell
  cache on every repeat, so the row pays plan computation the way a
  cold ``repro verify`` process does;
* ``speedup_vector_vs_packed`` — the live warm-vs-warm engine ratio
  (both engines share the persistent per-cell plan caches, so this is
  the pure engine-mechanics ratio, *not* the cold-start ratio);
* ``states_per_second`` — explored states over the median wall time of
  every gated row;
* the speedups against the pre-rewrite committed baselines, carried
  over from the packed-state rewrite.

The unsuffixed ``verify-searching-rc-7x14`` row keeps running on the
default (``auto``) engine for baseline continuity.  Without NumPy the
``-vector`` rows degrade to the packed engine (identical verdicts, so
the assertions still hold) and the vector-vs-packed ratio reads ~1.
The 6x13 checker cell and the game solver are already gated through
``BENCH_e8.json`` / ``BENCH_e6.json``, so here they are measured inline
for the speedup table only (one gate per workload).
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


def _searching_6x13(engine="auto"):
    result = check_cell("searching", 13, 6, engine=engine)
    assert result.verdict is Verdict.SOLVED
    return result


def _searching_7x14(engine="auto"):
    result = check_cell("searching", 14, 7, engine=engine)
    assert result.verdict is Verdict.SOLVED
    return result


def _frontier_6x15(engine="auto"):
    """The frontier-throughput cell: one (k, n) past the 7x14 frontier cell's k-1 row."""
    result = check_cell("searching", 15, 6, engine=engine)
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


#: Cells measured once per engine backend (the per-backend gated rows).
ENGINE_CELLS = {
    "verify-searching-rc-7x14": _searching_7x14,
    "frontier-searching-6x15": _frontier_6x15,
}


def main():
    from _harness import emit, safe_rate

    workloads = {
        "verify-searching-rc-7x14": _searching_7x14,
        "verify-gathering-8x18": _gathering_8x18_cold,
    }
    for cell, workload in ENGINE_CELLS.items():
        # Bind per iteration (default-arg trick) and measure packed
        # before vector; repeats share the persistent per-cell caches
        # either way, so the medians compare warm engine mechanics.
        workloads[f"{cell}-packed"] = lambda w=workload: w("packed")
        workloads[f"{cell}-vector"] = lambda w=workload: w("vector")
    path = emit("modelcheck", workloads)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    medians = {name: data["median_s"] for name, data in document["workloads"].items()}
    cell_states = {cell: workload().num_states for cell, workload in ENGINE_CELLS.items()}
    # Already gated via BENCH_e8/BENCH_e6; measured here for the table only.
    medians["verify-searching-rc-6x13"] = _median_seconds(_searching_6x13)
    medians["game-solver-n6-k3"] = _median_seconds(_game_solver_6x3)

    document.update(
        {
            "speedup_vs_pre_rewrite": {
                name: round(safe_rate(PRE_REWRITE_BASELINE[name], medians[name]), 2)
                for name in PRE_REWRITE_BASELINE
            },
            "speedup_vector_vs_packed": {
                cell: round(
                    safe_rate(medians[f"{cell}-packed"], medians[f"{cell}-vector"]), 2
                )
                for cell in ENGINE_CELLS
            },
            "states_per_second": {
                f"{cell}-{engine}": round(
                    safe_rate(cell_states[cell], medians[f"{cell}-{engine}"]), 1
                )
                for cell in ENGINE_CELLS
                for engine in ("packed", "vector")
            },
            "speedup_note": (
                "speedup_vs_pre_rewrite compares against the committed "
                "tuple-state-engine baselines measured on the 1-core "
                "reference container; speedup_vector_vs_packed is "
                "measured live on this host with warm persistent cell "
                "caches (engine mechanics only). Without NumPy the -vector "
                "rows degrade to the packed engine and "
                "speedup_vector_vs_packed reads ~1."
            ),
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, ratio in sorted(document["speedup_vs_pre_rewrite"].items()):
        print(f"[bench modelcheck] {name}: {ratio}x vs pre-rewrite baseline")
    for cell, ratio in sorted(document["speedup_vector_vs_packed"].items()):
        print(f"[bench modelcheck] {cell}: vector {ratio}x vs packed (warm)")


if __name__ == "__main__":
    main()
