"""Campaign integration: model-check many cells in parallel.

Each ``(k, n)`` cell of a verification grid is one independent campaign
unit, so grids parallelise, persist and resume through exactly the same
machinery as the experiments (:mod:`repro.campaign`).  The worker is a
module-level callable (picklable by reference) and its payload is free
of wall-clock fields, so serial and parallel runs of the same grid write
byte-identical ``summary.json`` aggregates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from .checker import DEFAULT_MAX_STATES, ENGINE_MODULES, ModelChecker
from .tasks import TASKS

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.spec import Campaign

__all__ = ["DEFAULT_MAX_STATES", "build_verify_campaign", "run_unit"]


def build_verify_campaign(
    task: str,
    cells: Sequence[Tuple[int, int]],
    *,
    adversary: str = "ssync",
    max_states: int = DEFAULT_MAX_STATES,
) -> Campaign:
    """One campaign unit per ``(k, n)`` cell of a verification grid.

    The state cap is part of the campaign identity (not just a worker
    parameter): an ``UNKNOWN`` verdict persisted in a result store at one
    cap must not be resumed as "done" when the user retries with a
    raised ``--max-states``.
    """
    from ..campaign.spec import build_cells_campaign

    if task not in TASKS:
        raise ValueError(f"unknown verification task {task!r}; expected one of {TASKS}")
    variant = f"{task}-{adversary}"
    if max_states != DEFAULT_MAX_STATES:
        variant += f"-m{max_states}"
    return build_cells_campaign(
        experiment="verify",
        variant=variant,
        description=f"exhaustive model check: task={task}, adversary={adversary}",
        cells=cells,
        extra=(("task", task), ("adversary", adversary), ("max_states", max_states)),
    )


def run_unit(unit: Dict[str, object]) -> Dict[str, object]:
    """Campaign worker: model-check one cell.

    The payload row is ``(task, k, n, algorithm, adversary, verdict,
    states, transitions, witness?)``; the full verdict document (without
    timing, for byte-determinism) rides along under ``"result"``.
    """
    extra = unit.get("extra") or {}
    task = str(extra["task"])
    adversary = str(extra.get("adversary", "ssync"))
    max_states = int(extra.get("max_states", DEFAULT_MAX_STATES))
    k, n = int(unit["k"]), int(unit["n"])
    result = ModelChecker(
        task,
        n,
        k,
        adversary=adversary,
        max_states=max_states,
    ).run()
    witness_note = result.witness.note if result.witness else ""
    return {
        "row": [
            task,
            k,
            n,
            result.algorithm,
            adversary,
            result.verdict.value,
            result.num_states,
            result.num_transitions,
            witness_note,
        ],
        "passed": result.verdict.value not in ("unknown", "error"),
        "result": result.to_jsonable(include_timing=False),
    }


run_unit.engine_modules = ENGINE_MODULES  # type: ignore[attr-defined]
