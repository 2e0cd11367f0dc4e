"""Experiment result containers and plain-text table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import CampaignReport

__all__ = ["ExperimentResult", "render_table"]


def render_table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as a fixed-width plain-text table.

    Column widths adapt to the content; floats are shown with two decimal
    places.  The output is deliberately free of external dependencies so
    that experiments can be run anywhere.
    """
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    materialised: List[List[str]] = [[fmt(v) for v in row] for row in rows]
    columns = len(header)
    widths = [len(h) for h in header]
    for row in materialised:
        for index in range(min(columns, len(row))):
            widths[index] = max(widths[index], len(row[index]))
    lines = []
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialised:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes:
        experiment: experiment identifier (``E1`` .. ``E8``).
        title: human-readable title (which paper artifact it reproduces).
        header: column names of the result table.
        rows: result rows.
        notes: free-form remarks (expected shapes, deviations, ...).
        passed: overall pass/fail of the experiment's internal checks.
        transient_failures: number of campaign units that did not finish
            (worker exception or process death) — a non-deterministic
            outcome, as opposed to a deterministic ``passed=False``.
        history_dependent_notes: number of notes describing *how* this
            run was served (store resume, unit-cache hits) rather than
            what it computed; a payload carrying such notes is not a
            pure function of the spec.
    """

    experiment: str
    title: str
    header: Tuple[str, ...]
    rows: List[Tuple[object, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    passed: bool = True
    transient_failures: int = 0
    history_dependent_notes: int = 0

    def add_row(self, *values: object) -> None:
        """Append one row to the result table."""
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        """Append one remark."""
        self.notes.append(note)

    def apply_campaign_report(self, report: CampaignReport) -> None:
        """Fold campaign unit records into this result (grid order).

        Successful units contribute their ``payload["row"]`` — or, for
        workers that check several properties per cell, every row of
        ``payload["rows"]`` — plus their ``payload["passed"]`` flag;
        failed or crashed units contribute an error row and fail the
        experiment, so a worker crash is visible in the table instead of
        silently dropping a cell.
        """
        for record in report.records:
            payload = record.get("payload")
            if record.get("status") == "ok" and isinstance(payload, dict):
                # KeyError on a payload with neither key is deliberate: a
                # worker that returns rows under a wrong name must fail
                # loudly, not drop its cell from the table.
                rows = payload["rows"] if "rows" in payload else [payload["row"]]
                for row in rows:
                    self.add_row(*row)
                if not payload.get("passed", True):
                    self.passed = False
            else:
                error = record.get("error") or {}
                self.add_row(
                    record.get("k"),
                    record.get("n"),
                    f"{record.get('status', 'error').upper()}: "
                    f"{error.get('type')}: {error.get('message')}",
                )
                self.passed = False
                self.transient_failures += 1
        if report.resumed:
            self.add_note(
                f"{len(report.resumed)} unit(s) restored from the result store"
            )
            self.history_dependent_notes += 1
        if report.cached:
            self.add_note(
                f"{len(report.cached)} unit(s) served from the result cache"
            )
            self.history_dependent_notes += 1

    def render(self) -> str:
        """Full plain-text report for this experiment."""
        out = [f"== {self.experiment}: {self.title} ==", ""]
        out.append(render_table(self.header, self.rows))
        if self.notes:
            out.append("")
            out.extend(f"note: {note}" for note in self.notes)
        out.append("")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)
