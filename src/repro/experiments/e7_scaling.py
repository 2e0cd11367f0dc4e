"""Experiment E7 — scaling behaviour of the constructive algorithms.

The paper's constructions imply quantitative behaviour that the theorems
do not spell out: Align converges within ``O(n * k)`` moves, the
Ring Clearing / NminusThree phase-2 cycles revisit the all-clear state
every ``Theta(n)`` moves, and Gathering needs ``O(n + k^2)``-ish moves.
This experiment measures those quantities over sweeps of ``n`` (at fixed
``k``) and of ``k`` (at fixed ``n``), producing the series that the
repository's EXPERIMENTS.md tabulates.
"""

from __future__ import annotations

import random

from ..algorithms.align import AlignAlgorithm
from ..algorithms.gathering import GatheringAlgorithm, gathering_supported
from ..algorithms.nminusthree import NminusThreeAlgorithm, nminusthree_supported
from ..algorithms.ring_clearing import RingClearingAlgorithm, ring_clearing_supported
from ..analysis.metrics import clearing_metrics, summarize
from ..batchsim import BatchEngine
from ..campaign import DEFAULT_CONTEXT, ExecutionContext, run_experiment_campaign
from ..simulator.runner import run_gathering
from ..tasks import SearchingMonitor
from ..workloads.generators import random_rigid_configuration
from .report import ExperimentResult

__all__ = ["run", "run_unit"]


def _align_moves(n: int, k: int, samples: int, seed: int) -> dict:
    """Align moves to reach C*, one :class:`~repro.batchsim.BatchEngine` lane per sample.

    The lanes' traces are byte-identical to one
    :class:`~repro.simulator.engine.Simulator` run per sample.
    """
    rng = random.Random(seed)
    configurations = [random_rigid_configuration(n, k, rng) for _ in range(samples)]
    engine = BatchEngine(AlignAlgorithm(), configurations, record_events=False)
    engine.run_until_configuration(
        lambda c: c.is_c_star(), 40 * n * k + 200, invariant=True
    )
    return summarize([engine.lane(i).total_moves for i in range(samples)])


def _gathering_moves(n: int, k: int, samples: int, seed: int) -> dict:
    """Gathering moves, one run per sample.

    Gathering's multiplicity-dependent decisions have no batched fast
    path.
    """
    rng = random.Random(seed + 1)
    moves = []
    for _ in range(samples):
        configuration = random_rigid_configuration(n, k, rng)
        trace, _ = run_gathering(GatheringAlgorithm(), configuration, max_steps=60 * n * k + 400)
        moves.append(trace.total_moves)
    return summarize(moves)


def _clearing_cost(n: int, k: int, samples: int, seed: int, steps_factor: int) -> dict:
    """Moves to the first full clearing, one batched lane and searching monitor per sample."""
    if ring_clearing_supported(n, k):
        algorithm = RingClearingAlgorithm()
    elif nminusthree_supported(n, k):
        algorithm = NminusThreeAlgorithm()
    else:
        return {"mean": float("nan"), "min": 0.0, "max": 0.0, "stdev": 0.0}
    rng = random.Random(seed + 2)
    configurations = [random_rigid_configuration(n, k, rng) for _ in range(samples)]
    searchers = [SearchingMonitor() for _ in range(samples)]
    engine = BatchEngine(
        algorithm,
        configurations,
        monitors_factory=lambda i: [searchers[i]],
        record_events=False,
    )
    engine.run(steps_factor * n * k)
    costs = []
    for searching in searchers:
        metrics = clearing_metrics(searching)
        if metrics.moves_to_full_clear is not None:
            costs.append(metrics.moves_to_full_clear)
    return summarize(costs)


def _json_safe(value):
    """NaN is not valid JSON; report missing measurements as ``"-"``."""
    if isinstance(value, float) and value != value:
        return "-"
    return value


def run_unit(unit):
    """Campaign worker: measure the scaling quantities of one ``(k, n)`` cell."""
    k, n = unit["k"], unit["n"]
    samples, seed = unit["samples"], unit["seed"]
    align_stats = _align_moves(n, k, samples, seed)
    gather_stats = (
        _gathering_moves(n, k, samples, seed)
        if gathering_supported(n, k)
        else {"mean": float("nan")}
    )
    cost_stats = _clearing_cost(n, k, max(2, samples // 2), seed, unit["steps_factor"])
    cost_mean = _json_safe(cost_stats["mean"])
    return {
        "row": [
            k,
            n,
            align_stats["mean"],
            align_stats["mean"] / (n * k),
            _json_safe(gather_stats["mean"]),
            cost_mean,
            (cost_mean / n) if isinstance(cost_mean, float) and cost_mean else "-",
        ],
        "passed": True,
    }


def run(variant: str = "quick", ctx: ExecutionContext = DEFAULT_CONTEXT) -> ExperimentResult:
    """Run E7 and return its result table."""
    result = ExperimentResult(
        experiment="E7",
        title="Scaling: Align moves, gathering moves, full-clearing cost vs (k, n)",
        header=(
            "k",
            "n",
            "align moves (mean)",
            "align moves / (n*k)",
            "gathering moves (mean)",
            "moves to full clear (mean)",
            "full clear moves / n",
        ),
    )
    report = run_experiment_campaign("e7", variant, run_unit, ctx)
    result.apply_campaign_report(report)
    result.add_note(
        "expected shape: align moves / (n*k) stays bounded by a small constant; "
        "the cost of the first full clearing stays within a small multiple of n"
    )
    return result
