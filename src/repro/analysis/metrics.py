"""Quantitative metrics extracted from simulation runs.

The paper proves qualitative theorems; the experiments additionally report
*quantitative* behaviour of the constructions (convergence moves, clearing
period, cover time).  This module computes those quantities from traces
and monitors so that experiments, benchmarks and the CLI all share the
same definitions.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.configuration import Configuration
from ..simulator.trace import Trace
from ..tasks.exploration import ExplorationMonitor
from ..tasks.searching import SearchingMonitor

__all__ = [
    "ConvergenceMetrics",
    "convergence_metrics",
    "ClearingMetrics",
    "clearing_metrics",
    "summarize",
]


@dataclass(frozen=True)
class ConvergenceMetrics:
    """Cost of a run that converges to a goal configuration.

    Attributes:
        steps: scheduler steps until the goal was reached.
        moves: total edge traversals.
        moves_per_robot: traversals broken down by robot.
        reached: whether the goal was reached within the budget.
    """

    steps: int
    moves: int
    moves_per_robot: Dict[int, int]
    reached: bool


def convergence_metrics(trace: Trace, goal=None) -> ConvergenceMetrics:
    """Extract convergence cost from a trace.

    Args:
        trace: the recorded run.
        goal: optional predicate on configurations; when given, the
            metrics are truncated at the first step whose configuration
            satisfies it.
    """
    if goal is None:
        reached = trace.stopped_reason in (
            "goal-reached",
            "goal-already-satisfied",
            "stable",
            "stop-condition",
        )
        return ConvergenceMetrics(
            steps=trace.num_steps,
            moves=trace.total_moves,
            moves_per_robot=trace.moves_per_robot(),
            reached=reached,
        )
    step = trace.first_step_where(goal)
    if step is None:
        return ConvergenceMetrics(
            steps=trace.num_steps,
            moves=trace.total_moves,
            moves_per_robot=trace.moves_per_robot(),
            reached=False,
        )
    moves_per_robot: Dict[int, int] = {}
    moves = 0
    for event in trace.events:
        if event.step > step:
            break
        for record in event.moves:
            moves += 1
            moves_per_robot[record.robot_id] = moves_per_robot.get(record.robot_id, 0) + 1
    return ConvergenceMetrics(
        steps=step + 1, moves=moves, moves_per_robot=moves_per_robot, reached=True
    )


@dataclass(frozen=True)
class ClearingMetrics:
    """Perpetual-searching quality of a run.

    Attributes:
        min_clearings: smallest number of observation steps at which any
            single edge was clear.
        mean_clearings: average of the same quantity over all edges.
        all_clear_count: number of steps at which the whole ring was clear.
        moves_to_full_clear: number of robot moves executed before the
            whole ring was simultaneously clear for the first time
            (``None`` when that never happened).  Note that in mixed graph
            searching a fully clear ring can never be recontaminated, so
            this is the relevant "clearing cost" of a strategy; perpetual
            re-clearing is captured by :attr:`min_clearings`.
        cover_time: first step at which every robot had visited every node
            (``-1`` if not achieved).
        min_visits: smallest per-robot per-node visit count.
    """

    min_clearings: int
    mean_clearings: float
    all_clear_count: int
    moves_to_full_clear: Optional[float]
    cover_time: int
    min_visits: int


def clearing_metrics(
    searching: SearchingMonitor,
    exploration: Optional[ExplorationMonitor] = None,
) -> ClearingMetrics:
    """Aggregate the searching (and optionally exploration) monitors."""
    counts = searching.clearing_counts()
    min_clearings = min(counts.values()) if counts else 0
    mean_clearings = statistics.fmean(counts.values()) if counts else 0.0
    first_clear_moves = searching.moves_to_first_all_clear
    moves_to_full_clear = float(first_clear_moves) if first_clear_moves is not None else None
    cover_time = exploration.cover_time() if exploration is not None else -1
    min_visits = exploration.min_visits() if exploration is not None else 0
    return ClearingMetrics(
        min_clearings=min_clearings,
        mean_clearings=mean_clearings,
        all_clear_count=len(searching.all_clear_steps),
        moves_to_full_clear=moves_to_full_clear,
        cover_time=cover_time,
        min_visits=min_visits,
    )


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / min / max / population standard deviation of a sample."""
    data = list(values)
    if not data:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "stdev": 0.0}
    return {
        "mean": statistics.fmean(data),
        "min": min(data),
        "max": max(data),
        "stdev": statistics.pstdev(data),
    }
