"""Experiment E8 — exhaustive model-checking verdicts vs the paper's tables.

For every ``(k, n)`` cell of the suite, the model checker
(:mod:`repro.modelcheck`) verifies each applicable task against the
exhaustive SSYNC adversary and the verdict is cross-checked against the
paper's feasibility characterization (:mod:`repro.analysis.feasibility`)
and — on the small cells the E6 adversary-game grid covers — against the
game solver's ``IMPOSSIBLE`` verdicts:

* cells the paper proves feasible must come back ``SOLVED``;
* cells the paper proves infeasible must *not* come back ``SOLVED`` —
  the checker must produce a concrete collision or fair-livelock
  counterexample trace;
* on the E6 game cells, ``IMPOSSIBLE`` (no candidate algorithm survives)
  must be consistent with the implemented baseline being defeated.

The experiment fails if any verdict disagrees, turning the paper's
universally quantified claims into a machine-checked regression table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from ..algorithms.nminusthree import nminusthree_supported
from ..algorithms.ring_clearing import ring_clearing_supported
from ..analysis.feasibility import (
    Feasibility,
    exploration_feasibility,
    gathering_feasibility,
    searching_feasibility,
)
from ..analysis.game import GameVerdict, searching_game_verdict
from ..modelcheck import check_cell
from ..modelcheck.checker import ENGINE_MODULES
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run_unit", "report_result", "GAME_CELLS", "applicable_checks"]

#: Cells cross-checked against the E6 adversary-game solver (its quick
#: grid): small enough for the exhaustive candidate search.
GAME_CELLS = ((1, 4), (1, 5), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6))

#: Per-cell exploration cap; every suite cell stays far below this.
MAX_STATES = 120_000

#: Expectation labels used in the table.
EXPECT_SOLVED = "solved"
EXPECT_DEFEATED = "collision/livelock"


def applicable_checks(k: int, n: int) -> Iterator[Tuple[str, str, str]]:
    """The ``(task, expectation, reference)`` checks applying to one cell."""
    if 2 <= k < n - 2:
        feasibility = gathering_feasibility(n, k)
        expected = (
            EXPECT_SOLVED if feasibility.verdict is Feasibility.FEASIBLE else EXPECT_DEFEATED
        )
        yield "gathering", expected, feasibility.reference
    if 3 <= k < n - 2:
        yield "align", EXPECT_SOLVED, "Theorem 1 (Align reaches C*)"
    if ring_clearing_supported(n, k) or nminusthree_supported(n, k):
        yield "searching", EXPECT_SOLVED, searching_feasibility(n, k).reference
        yield "exploration", EXPECT_SOLVED, exploration_feasibility(n, k).reference
    elif (k, n) in GAME_CELLS:
        game = searching_game_verdict(n, k)
        expected = (
            EXPECT_DEFEATED if game.verdict is GameVerdict.IMPOSSIBLE else EXPECT_SOLVED
        )
        yield "searching", expected, (
            f"E6 game: {game.verdict.value} ({game.algorithms_checked} candidates)"
        )


def _agrees(expected: str, verdict: str) -> bool:
    if expected == EXPECT_SOLVED:
        return verdict == "solved"
    return verdict in ("collision", "livelock")


def run_unit(unit: Dict[str, object]) -> Dict[str, object]:
    """Campaign worker: model-check every applicable task for one cell."""
    k, n = int(unit["k"]), int(unit["n"])
    rows: List[List[object]] = []
    passed = True
    witness = None
    for task, expected, reference in applicable_checks(k, n):
        result = check_cell(task, n, k, adversary="ssync", max_states=MAX_STATES)
        verdict = result.verdict.value
        agrees = _agrees(expected, verdict)
        passed = passed and agrees
        rows.append(
            [task, k, n, result.algorithm, verdict, expected, reference,
             result.num_states, "yes" if agrees else "NO"]
        )
        if witness is None and result.witness is not None and expected == EXPECT_DEFEATED:
            witness = {
                "task": task,
                "k": k,
                "n": n,
                "algorithm": result.algorithm,
                **result.witness.as_jsonable(),
            }
    return {"rows": rows, "passed": passed, "counterexample": witness}


run_unit.engine_modules = ENGINE_MODULES  # type: ignore[attr-defined]


def report_result(report: CampaignReport) -> ExperimentResult:
    """E8's result table from its campaign report."""
    result = ExperimentResult(
        experiment="E8",
        title="Exhaustive adversarial model checking vs the paper's verdict tables",
        header=(
            "task", "k", "n", "algorithm", "verdict", "expected", "reference",
            "states", "agrees",
        ),
    )
    result.apply_campaign_report(report)
    counterexamples = [
        record["payload"].get("counterexample")
        for record in report.records
        if record.get("status") == "ok" and isinstance(record.get("payload"), dict)
    ]
    counterexamples = [c for c in counterexamples if c]
    if counterexamples:
        sample = counterexamples[0]
        loop = (
            f"loop starts at step {sample['cycle_start']}"
            if sample.get("cycle_start") is not None
            else "ends in a collision"
        )
        result.add_note(
            f"{len(counterexamples)} concrete counterexample trace(s); e.g. "
            f"{sample['task']} (k={sample['k']}, n={sample['n']}) vs {sample['algorithm']}: "
            f"{sample['note']} ({len(sample['steps'])} step(s), {loop})"
        )
    else:
        result.passed = False
        result.add_note("expected at least one counterexample trace on an infeasible cell")
    result.add_note(
        "SOLVED is exact for the SSYNC adversary explored and evidence for full CORDA; "
        "COLLISION/LIVELOCK verdicts carry replayable witness traces (see README, Verification)"
    )
    return result
