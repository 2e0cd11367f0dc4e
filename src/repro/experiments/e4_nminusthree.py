"""Experiment E4 — Theorem 7: Algorithm NminusThree for ``k = n - 3``.

Same verification as E3 but for the dedicated ``k = n - 3`` algorithm:
perpetual exclusive searching and exploration, plus the phase-1 claim of
Lemma 9 (a final configuration is reached from every rigid start) and the
phase-2 claim that the three final block-size descriptions cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algorithms.classification import three_empty_structure
from ..algorithms.nminusthree import (
    NminusThreeAlgorithm,
    final_configurations,
    nminusthree_supported,
)
from ..batchsim import BatchEngine
from ..tasks import ExplorationMonitor, Monitor, SearchingMonitor
from ..workloads.generators import rigid_configurations
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run_unit", "report_result"]


class _FinalReached(Monitor):
    """Whether a run ever shows a final block structure (Lemma 9's phase 1).

    Checks the initial configuration and the configuration after every
    step until one matches.  A non-exclusive configuration is left to
    the engine, which raises :class:`CollisionError` right after this
    callback.
    """

    def __init__(self, finals) -> None:
        self.finals = finals
        self.reached = False

    def _check(self, configuration) -> None:
        if not self.reached and configuration.is_exclusive:
            self.reached = three_empty_structure(configuration).sorted_sizes in self.finals

    def on_start(self, engine) -> None:
        """Check the starting configuration."""
        self._check(engine.configuration)

    def on_step(self, engine, moves, configuration) -> None:
        """Check the configuration after the step."""
        self._check(configuration)

    def orbit_key(self, base) -> bool:
        """Only ``reached`` changes what this monitor records next."""
        return self.reached

    def orbit_skip(self, engine, start, period, full, shift, moves) -> None:
        """Nothing to replay: a rotated configuration has the same block sizes."""


def run_unit(unit):
    """Campaign worker: verify Theorem 7 / Lemma 9 on one ``(k, n)`` cell.

    Every start is one lane of a single :class:`BatchEngine` with its
    own monitors and no event log; a collision raises
    :class:`CollisionError` (the default ``collision_policy="raise"``)
    and fails the unit.
    """
    k, n = unit["k"], unit["n"]
    if not nminusthree_supported(n, k):
        return {"row": [k, n, 0, "-", "-", "-", "unsupported"], "passed": True}
    starts = rigid_configurations(n, k)
    if len(starts) > 12:
        starts = starts[:12]
    finals = set(final_configurations(k))
    monitors = [
        (_FinalReached(finals), SearchingMonitor(), ExplorationMonitor()) for _ in starts
    ]
    engine = BatchEngine(
        NminusThreeAlgorithm(),
        starts,
        monitors_factory=lambda i: monitors[i],
        record_events=False,
    )
    engine.run(unit["steps_factor"] * n * k)
    reach_final = searching_ok = exploration_ok = 0
    all_clear_events = 0
    for final, searching, exploration in monitors:
        if final.reached:
            reach_final += 1
        if searching.every_edge_cleared(2):
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


def report_result(report: CampaignReport) -> ExperimentResult:
    """E4's result table from its campaign report."""
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
    result.apply_campaign_report(report)
    result.add_note("expected shape: all starts pass; the dedicated algorithm covers k = n - 3, which Ring Clearing does not")
    return result
