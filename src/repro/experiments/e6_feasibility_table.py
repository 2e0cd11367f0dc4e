"""Experiment E6 — the feasibility characterization of perpetual graph searching.

The experiment produces the ``(k, n)`` verdict table encoded from the
paper's theorems (Theorems 2-7, Lemma 6) and cross-checks it from two
directions:

* for the smallest infeasible cells, the exhaustive adversary game solver
  re-derives the impossibility computationally (Theorems 2, 3 and the
  base cases of Theorem 5);
* for a sample of feasible cells, the corresponding constructive
  algorithm (Ring Clearing or NminusThree) is simulated and its perpetual
  searching behaviour verified.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algorithms.nminusthree import NminusThreeAlgorithm, nminusthree_supported
from ..algorithms.ring_clearing import RingClearingAlgorithm, ring_clearing_supported
from ..analysis.feasibility import Feasibility, searching_feasibility
from ..analysis.game import GameVerdict, searching_game_verdict
from ..batchsim.engine import BatchEngine
from ..tasks import SearchingMonitor
from ..workloads.generators import iter_rigid_configurations
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run_unit", "report_result", "simulation_cross_check", "FEASIBLE_SAMPLE"]

#: Feasible cells cross-checked by simulation in the quick variant.
FEASIBLE_SAMPLE = ((6, 11), (7, 12), (7, 10), (9, 12))


def simulation_cross_check(k: int, n: int, steps_factor: int = 30) -> bool:
    """Simulate the constructive algorithm for a feasible cell and verify clearing.

    The run is one unrecorded engine lane; a collision raises.
    """
    if ring_clearing_supported(n, k):
        algorithm = RingClearingAlgorithm()
    elif nminusthree_supported(n, k):
        algorithm = NminusThreeAlgorithm()
    else:
        return False
    configuration = next(iter_rigid_configurations(n, k))
    searching = SearchingMonitor()
    engine = BatchEngine(
        algorithm,
        [configuration],
        monitors_factory=lambda index: [searching],
        record_events=False,
    )
    engine.run(steps_factor * n * k)
    return searching.every_edge_cleared(2)


def run_unit(unit):
    """Campaign worker: game-solver cross-check for one infeasible cell."""
    k, n = unit["k"], unit["n"]
    verdict = searching_feasibility(n, k)
    game = searching_game_verdict(n, k)
    check = f"game: {game.verdict.value} ({game.algorithms_checked} algos)"
    agrees = (
        verdict.verdict is Feasibility.INFEASIBLE
        and game.verdict is GameVerdict.IMPOSSIBLE
    )
    return {
        "row": [
            k, n, verdict.verdict.value, verdict.reference, check,
            "yes" if agrees else "NO",
        ],
        "passed": agrees,
    }


def report_result(report: CampaignReport) -> ExperimentResult:
    """E6's result table from its campaign report."""
    result = ExperimentResult(
        experiment="E6",
        title="Exclusive perpetual graph searching: characterization and cross-checks",
        header=("k", "n", "paper verdict", "reference", "cross-check", "agrees"),
    )
    # 1. Game-solver cross-checks on the smallest infeasible cells
    #    (the grid part, run through the campaign layer).
    result.apply_campaign_report(report)
    # 2. Simulation cross-checks on feasible cells.
    for k, n in FEASIBLE_SAMPLE:
        verdict = searching_feasibility(n, k)
        ok = simulation_cross_check(k, n)
        agrees = verdict.verdict is Feasibility.FEASIBLE and ok
        if not agrees:
            result.passed = False
        result.add_row(
            k, n, verdict.verdict.value, verdict.reference, "simulation: perpetual clearing", "yes" if agrees else "NO"
        )
    # 3. The open cells, reported as such.
    for k, n in ((4, 12), (5, 10)):
        verdict = searching_feasibility(n, k)
        result.add_row(k, n, verdict.verdict.value, verdict.reference, "left open by the paper", "yes")
    result.add_note(
        "the characterization matches the paper: infeasible for n <= 9 or k in {1,2,3,n-2,n-1}; "
        "feasible for n >= 10, 5 <= k <= n-3 (except (5,10)); open for k=4 (n>9) and (5,10)"
    )
    return result
