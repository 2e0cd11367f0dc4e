"""Experiment E3 — Theorem 6: Ring Clearing perpetually searches and explores.

For every ``(k, n)`` pair in the proven range (``n >= 10``,
``5 <= k < n - 3``, excluding the open case ``(5, 10)``) the experiment
runs Algorithm Ring Clearing from rigid starting configurations and
verifies, over a long bounded run, that

* the exclusivity property always holds and a single robot moves per step,
* every edge of the ring is cleared many times (perpetual searching),
* every robot visits every node many times (perpetual exploration),
* the whole ring is simultaneously clear infinitely often.

The table also reports the estimated *clearing period* (moves between two
consecutive all-clear events), whose expected shape is linear in ``n``.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import TYPE_CHECKING

from ..algorithms.ring_clearing import RingClearingAlgorithm, ring_clearing_supported
from ..analysis.metrics import clearing_metrics, summarize
from ..batchsim import BatchEngine
from ..campaign import DEFAULT_CONTEXT, ExecutionContext, run_experiment_campaign
from ..tasks import ExplorationMonitor, SearchingMonitor
from ..workloads.generators import iter_rigid_configurations, random_rigid_configuration
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run", "run_unit", "report_result"]


def run_unit(unit):
    """Campaign worker: verify Theorem 6 on every start of one ``(k, n)`` cell.

    Every start is one lane of a single :class:`BatchEngine`, watched by
    its own searching and exploration monitors; no event log is kept.
    A collision needs no trace to be caught: under the default
    ``collision_policy="raise"`` it raises :class:`CollisionError` and
    fails the unit.
    """
    k, n = unit["k"], unit["n"]
    if not ring_clearing_supported(n, k):
        return {"row": [k, n, 0, "-", "-", "-", "unsupported", "-"], "passed": True}
    rng = random.Random(unit["seed"])
    if n <= 12:
        starts = list(islice(iter_rigid_configurations(n, k), max(unit["samples"], 3)))
    else:
        starts = [random_rigid_configuration(n, k, rng) for _ in range(unit["samples"])]
    searchers = [SearchingMonitor() for _ in starts]
    explorers = [ExplorationMonitor() for _ in starts]
    engine = BatchEngine(
        RingClearingAlgorithm(),
        starts,
        monitors_factory=lambda i: [searchers[i], explorers[i]],
        record_events=False,
    )
    engine.run(unit["steps_factor"] * n * k)
    searching_ok = exploration_ok = 0
    all_clear_events = []
    periods = []
    min_clearings = []
    for searching, exploration in zip(searchers, explorers):
        metrics = clearing_metrics(searching, exploration)
        if searching.every_edge_cleared(2):
            searching_ok += 1
        if exploration.all_robots_covered_ring(2):
            exploration_ok += 1
        all_clear_events.append(metrics.all_clear_count)
        if metrics.moves_to_full_clear is not None:
            periods.append(metrics.moves_to_full_clear)
        min_clearings.append(metrics.min_clearings)
    passed = searching_ok == len(starts) and exploration_ok == len(starts)
    return {
        "row": [
            k,
            n,
            len(starts),
            searching_ok,
            exploration_ok,
            summarize(all_clear_events)["mean"],
            summarize(periods)["mean"] if periods else "-",
            min(min_clearings) if min_clearings else "-",
        ],
        "passed": passed,
    }


def run(variant: str = "quick", ctx: ExecutionContext = DEFAULT_CONTEXT) -> ExperimentResult:
    """Run E3 and return its result table."""
    return report_result(run_experiment_campaign("e3", variant, run_unit, ctx))


def report_result(report: CampaignReport) -> ExperimentResult:
    """E3's result table from its campaign report."""
    result = ExperimentResult(
        experiment="E3",
        title="Ring Clearing: perpetual exclusive searching + exploration (Theorem 6)",
        header=(
            "k",
            "n",
            "starts",
            "searching ok",
            "exploration ok",
            "all-clear events",
            "moves to first full clear",
            "min edge clearings",
        ),
    )
    result.apply_campaign_report(report)
    result.add_note(
        "expected shape: every start satisfies both tasks; the cost of the first full clearing "
        "grows with n (Align phase plus one tour of the phase-2 cycle)"
    )
    return result
