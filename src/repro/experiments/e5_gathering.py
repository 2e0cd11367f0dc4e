"""Experiment E5 — Theorem 8: Gathering with local multiplicity detection.

The experiment runs Algorithm Gathering from every rigid configuration
class (exhaustively for small rings, randomly sampled for larger ones)
with ``2 < k < n - 2``, checking that all robots end up on a single node
and stay there, and reporting the number of moves to gather.  A greedy
strawman baseline is run on the same starts to show that the problem is
not trivially solved by "walk towards the closest robot".  Both run each
cell's starts as the lanes of one :class:`~repro.batchsim.BatchEngine`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..algorithms.baselines import GreedyGatherBaseline
from ..algorithms.gathering import GatheringAlgorithm, gathering_supported
from ..analysis.metrics import summarize
from ..batchsim import BatchEngine
from ..simulator.options import EngineOptions
from ..workloads.generators import random_rigid_configuration, rigid_configurations
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run_unit", "report_result", "EXHAUSTIVE_LIMIT"]

#: Ring sizes up to which every rigid configuration class is tried.
EXHAUSTIVE_LIMIT = 12


def _starting_configurations(n: int, k: int, samples: int, seed: int):
    if n <= EXHAUSTIVE_LIMIT:
        return rigid_configurations(n, k)
    rng = random.Random(seed)
    return [random_rigid_configuration(n, k, rng) for _ in range(samples)]


#: Engine model of Gathering, as :func:`~repro.simulator.runner.run_gathering`
#: sets it: towers allowed and detected.
_GATHERING_OPTIONS = EngineOptions(exclusive=False, multiplicity_detection=True)

#: Engine model of the greedy strawman: towers allowed and detected.
_BASELINE_OPTIONS = EngineOptions(
    exclusive=False, multiplicity_detection=True, presentation_seed=1
)


def _baseline_gathered(starts, budget: int) -> int:
    """How many starts the greedy baseline gathers within ``budget`` steps.

    Every start is one round-robin lane of a single
    :class:`BatchEngine`.  The baseline is not a global-rule algorithm,
    so each lane decides through the shared Look table, with its
    presentation RNG seeded as a
    :class:`~repro.simulator.engine.Simulator` run seeds it.  Without an
    event log, a lane that settles into a periodic orbit free of
    presentation ties (gathered, or stuck in a cycle) has the rest of
    its budget fast-forwarded; its positions and RNG state still equal
    those of the run stepped one by one.
    """
    engine = BatchEngine(
        GreedyGatherBaseline(), starts, options=_BASELINE_OPTIONS, record_events=False
    )
    engine.run(budget)
    return sum(
        1
        for i in range(engine.num_lanes)
        if engine.lane_view(i).configuration.num_occupied == 1
    )


def run_unit(unit):
    """Campaign worker: gather from every start of one ``(k, n)`` cell.

    One round-robin lane per start; each lane equals one per-run
    :func:`~repro.simulator.runner.run_gathering` (positions, moves,
    steps and presentation draws), and the lanes share one class-plan
    table, so Gathering's plan is computed once per support class.
    """
    k, n = unit["k"], unit["n"]
    if not gathering_supported(n, k):
        return {"row": [k, n, 0, "unsupported", "-", "-", "-", "-"], "passed": True}
    starts = _starting_configurations(n, k, unit["samples"], unit["seed"])
    budget = 30 * n * k + 200
    engine = BatchEngine(
        GatheringAlgorithm(), starts, options=_GATHERING_OPTIONS, record_events=False
    )
    engine.run_until_configuration(lambda c: c.num_occupied == 1, budget, invariant=True)
    gathered = sum(
        1
        for i in range(engine.num_lanes)
        if engine.lane_view(i).configuration.num_occupied == 1
    )
    move_counts = [engine.lane(i).total_moves for i in range(engine.num_lanes)]
    baseline_gathered = _baseline_gathered(starts, budget)
    stats = summarize(move_counts)
    return {
        "row": [
            k,
            n,
            len(starts),
            gathered,
            baseline_gathered,
            stats["min"],
            stats["mean"],
            stats["max"],
        ],
        "passed": gathered == len(starts),
    }


def report_result(report: CampaignReport) -> ExperimentResult:
    """E5's result table from its campaign report."""
    result = ExperimentResult(
        experiment="E5",
        title="Gathering with local multiplicity detection (Theorem 8) vs greedy baseline",
        header=(
            "k",
            "n",
            "starts",
            "gathered (paper algo)",
            "gathered (greedy baseline)",
            "moves min",
            "moves mean",
            "moves max",
        ),
    )
    result.apply_campaign_report(report)
    result.add_note(
        "expected shape: the paper's algorithm gathers from every rigid start; "
        "the greedy baseline fails on part of them"
    )
    return result
