"""Experiment E1 — configuration censuses behind Figures 4-9.

For each of the paper's small impossibility cases, the case analysis of
Theorem 5 enumerates *all distinct configurations* of ``k`` robots on an
``n``-node ring; Figures 4-9 draw them.  This experiment regenerates the
enumeration (necklaces under the dihedral group), compares the counts to
the figures, and reports the symmetry breakdown the proofs rely on
(rigid / symmetric-aperiodic / periodic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.enumeration import PAPER_FIGURE_COUNTS, census
from .report import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["run_unit", "report_result"]


def run_unit(unit):
    """Campaign worker: census one ``(k, n)`` cell against the paper count."""
    k, n = unit["k"], unit["n"]
    measured = census(n, k)
    figure, expected = PAPER_FIGURE_COUNTS.get((k, n), ("-", None))
    match = expected is None or expected == measured.total
    return {
        "row": [
            k,
            n,
            figure,
            expected if expected is not None else "-",
            measured.total,
            measured.rigid,
            measured.symmetric_aperiodic,
            measured.periodic,
            "yes" if match else "NO",
        ],
        "passed": match,
    }


def report_result(report: CampaignReport) -> ExperimentResult:
    """E1's result table from its campaign report."""
    result = ExperimentResult(
        experiment="E1",
        title="Configuration census per (k, n) — reproduces Figures 4-9",
        header=("k", "n", "paper figure", "paper count", "measured", "rigid", "symmetric", "periodic", "match"),
    )
    result.apply_campaign_report(report)
    result.add_note(
        "paper counts: Figure 4 (4,7)=4, Figure 5 (4,8)=8, Figure 6 (5,8)=5, "
        "Figure 7 (6,9)=7, Figure 8 (4,9)=10, Figure 9 (5,9)=10"
    )
    return result
