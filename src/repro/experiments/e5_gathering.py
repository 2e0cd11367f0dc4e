"""Experiment E5 — Theorem 8: Gathering with local multiplicity detection.

The experiment runs Algorithm Gathering from every rigid configuration
class (exhaustively for small rings, randomly sampled for larger ones)
with ``2 < k < n - 2``, checking that all robots end up on a single node
and stay there, and reporting the number of moves to gather.  A greedy
strawman baseline is run on the same starts to show that the problem is
not trivially solved by "walk towards the closest robot".
"""

from __future__ import annotations

import random

from ..algorithms.baselines import GreedyGatherBaseline
from ..algorithms.gathering import GatheringAlgorithm, gathering_supported
from ..analysis.metrics import summarize
from ..batchsim import BatchEngine
from ..campaign import DEFAULT_CONTEXT, ExecutionContext, run_experiment_campaign
from ..simulator.options import EngineOptions
from ..simulator.runner import run_gathering
from ..workloads.generators import random_rigid_configuration, rigid_configurations
from .report import ExperimentResult

__all__ = ["run", "run_unit", "EXHAUSTIVE_LIMIT"]

#: Ring sizes up to which every rigid configuration class is tried.
EXHAUSTIVE_LIMIT = 12


def _starting_configurations(n: int, k: int, samples: int, seed: int):
    if n <= EXHAUSTIVE_LIMIT:
        return rigid_configurations(n, k)
    rng = random.Random(seed)
    return [random_rigid_configuration(n, k, rng) for _ in range(samples)]


#: Engine model of the greedy strawman: towers allowed and detected.
_BASELINE_OPTIONS = EngineOptions(
    exclusive=False, multiplicity_detection=True, presentation_seed=1
)


def _baseline_gathered(starts, budget: int) -> int:
    """How many starts the greedy baseline gathers within ``budget`` steps.

    Every start is one round-robin lane of a single
    :class:`BatchEngine`.  The baseline is not a global-rule algorithm,
    so each lane decides through the shared Look table, with its
    presentation RNG seeded as the per-run
    :class:`~repro.simulator.engine.Simulator` seeds it.  Without an
    event log, a lane that settles into a periodic orbit free of
    presentation ties (gathered, or stuck in a cycle) has the rest of
    its budget fast-forwarded; its positions and RNG state still equal
    the per-run engine's.
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
    """Campaign worker: gather from every start of one ``(k, n)`` cell."""
    k, n = unit["k"], unit["n"]
    if not gathering_supported(n, k):
        return {"row": [k, n, 0, "unsupported", "-", "-", "-", "-"], "passed": True}
    starts = _starting_configurations(n, k, unit["samples"], unit["seed"])
    gathered = 0
    move_counts = []
    budget = 30 * n * k + 200
    for configuration in starts:
        trace, engine = run_gathering(GatheringAlgorithm(), configuration, max_steps=budget)
        if trace.final_configuration.num_occupied == 1:
            gathered += 1
        move_counts.append(trace.total_moves)
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


def run(variant: str = "quick", ctx: ExecutionContext = DEFAULT_CONTEXT) -> ExperimentResult:
    """Run E5 and return its result table."""
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
    report = run_experiment_campaign("e5", variant, run_unit, ctx)
    result.apply_campaign_report(report)
    result.add_note(
        "expected shape: the paper's algorithm gathers from every rigid start; "
        "the greedy baseline fails on part of them"
    )
    return result
