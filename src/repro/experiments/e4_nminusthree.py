"""Experiment E4 — Theorem 7: Algorithm NminusThree for ``k = n - 3``.

Same verification as E3 but for the dedicated ``k = n - 3`` algorithm:
perpetual exclusive searching and exploration, plus the phase-1 claim of
Lemma 9 (a final configuration is reached from every rigid start) and the
phase-2 claim that the three final block-size descriptions cycle.
"""

from __future__ import annotations

from ..algorithms.classification import three_empty_structure
from ..algorithms.nminusthree import (
    NminusThreeAlgorithm,
    final_configurations,
    nminusthree_supported,
)
from ..campaign import DEFAULT_CONTEXT, ExecutionContext, run_experiment_campaign
from ..simulator.engine import Simulator
from ..tasks import ExplorationMonitor, SearchingMonitor
from ..workloads.generators import rigid_configurations
from .report import ExperimentResult

__all__ = ["run", "run_unit"]


def run_unit(unit):
    """Campaign worker: verify Theorem 7 / Lemma 9 on one ``(k, n)`` cell."""
    k, n = unit["k"], unit["n"]
    if not nminusthree_supported(n, k):
        return {"row": [k, n, 0, "-", "-", "-", "unsupported"], "passed": True}
    starts = rigid_configurations(n, k)
    if len(starts) > 12:
        starts = starts[:12]
    finals = set(final_configurations(k))
    reach_final = searching_ok = exploration_ok = 0
    all_clear_events = 0
    for configuration in starts:
        searching = SearchingMonitor()
        exploration = ExplorationMonitor()
        engine = Simulator(
            NminusThreeAlgorithm(), configuration, monitors=[searching, exploration]
        )
        engine.run(unit["steps_factor"] * n * k)
        structures = [
            three_empty_structure(c).sorted_sizes
            for c in engine.trace.configurations()
        ]
        if any(s in finals for s in structures):
            reach_final += 1
        if searching.every_edge_cleared(2) and not engine.trace.had_collision:
            searching_ok += 1
        if exploration.all_robots_covered_ring(2):
            exploration_ok += 1
        all_clear_events += len(searching.all_clear_steps)
    passed = reach_final == searching_ok == exploration_ok == len(starts)
    return {
        "row": [
            k, n, len(starts), reach_final, searching_ok, exploration_ok, all_clear_events
        ],
        "passed": passed,
    }


def run(variant: str = "quick", ctx: ExecutionContext = DEFAULT_CONTEXT) -> ExperimentResult:
    """Run E4 and return its result table."""
    result = ExperimentResult(
        experiment="E4",
        title="NminusThree: perpetual searching + exploration for k = n - 3 (Theorem 7, Lemma 9)",
        header=(
            "k",
            "n",
            "starts",
            "phase-1 reaches final",
            "searching ok",
            "exploration ok",
            "all-clear events",
        ),
    )
    report = run_experiment_campaign("e4", variant, run_unit, ctx)
    result.apply_campaign_report(report)
    result.add_note("expected shape: all starts pass; the dedicated algorithm covers k = n - 3, which Ring Clearing does not")
    return result
