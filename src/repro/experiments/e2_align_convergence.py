"""Experiment E2 — Theorem 1: Align reaches C* from every rigid configuration.

For every ``(k, n)`` pair of the suite the experiment runs Algorithm
Align from every rigid configuration class (exhaustively for small rings,
from random rigid samples for larger ones) and checks the three claims of
Theorem 1:

* the run terminates in the configuration :math:`C^*`,
* every intermediate configuration is rigid, except possibly the single
  symmetric configuration with supermin view ``(0, 0, 2, 2)``,
* only one robot is ever enabled per step (no simultaneous moves, no
  collisions).

The table reports the number of starting configurations, the success
count and the min/mean/max number of moves to convergence.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..algorithms.align import SPECIAL_SYMMETRIC_VIEW, AlignAlgorithm
from ..analysis.metrics import summarize
from ..campaign import DEFAULT_CONTEXT, ExecutionContext, run_experiment_campaign
from ..simulator.engine import Simulator
from ..workloads.generators import random_rigid_configuration, rigid_configurations
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run", "run_unit", "report_result", "EXHAUSTIVE_LIMIT"]

#: Ring sizes up to which every rigid configuration class is tried.
EXHAUSTIVE_LIMIT = 13


def _starting_configurations(n: int, k: int, samples: int, seed: int):
    if n <= EXHAUSTIVE_LIMIT:
        return rigid_configurations(n, k)
    rng = random.Random(seed)
    return [random_rigid_configuration(n, k, rng) for _ in range(samples)]


def run_unit(unit):
    """Campaign worker: check Theorem 1 on every start of one ``(k, n)`` cell."""
    k, n = unit["k"], unit["n"]
    starts = _starting_configurations(n, k, unit["samples"], unit["seed"])
    reached = 0
    invariant_ok = 0
    move_counts = []
    for configuration in starts:
        engine = Simulator(AlignAlgorithm(), configuration)
        trace = engine.run_until(
            lambda sim: sim.configuration.is_c_star(), 30 * n * k + 200
        )
        ok_invariant = not trace.had_collision and trace.max_simultaneous_moves() <= 1
        for intermediate in trace.configurations():
            if not (
                intermediate.is_rigid
                or intermediate.supermin_view() == SPECIAL_SYMMETRIC_VIEW
                or intermediate.is_c_star()
            ):
                ok_invariant = False
        if trace.final_configuration.is_c_star():
            reached += 1
        if ok_invariant:
            invariant_ok += 1
        move_counts.append(trace.total_moves)
    stats = summarize(move_counts)
    passed = reached == len(starts) and invariant_ok == len(starts)
    return {
        "row": [
            k, n, len(starts), reached, invariant_ok,
            stats["min"], stats["mean"], stats["max"],
        ],
        "passed": passed,
    }


def run(variant: str = "quick", ctx: ExecutionContext = DEFAULT_CONTEXT) -> ExperimentResult:
    """Run E2 and return its result table."""
    return report_result(run_experiment_campaign("e2", variant, run_unit, ctx))


def report_result(report: CampaignReport) -> ExperimentResult:
    """E2's result table from its campaign report."""
    result = ExperimentResult(
        experiment="E2",
        title="Align convergence to C* (Theorem 1)",
        header=("k", "n", "starts", "reached C*", "invariant ok", "moves min", "moves mean", "moves max"),
    )
    result.apply_campaign_report(report)
    result.add_note("expected shape: 100% of starts reach C*; moves grow like O(n * k)")
    return result
