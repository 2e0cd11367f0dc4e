"""Task adapters: what "the algorithm solves the task" means per task.

Each adapter bundles the algorithm under verification, the capability
set the simulation grants (multiplicity detection, exclusivity), the
state-space flavour the checker must explore, and the goal semantics:

``reach``
    terminal tasks (align, gathering): every fair execution must reach a
    goal configuration and stay there.  Goal predicates are invariant
    under ring automorphisms, so the checker soundly dedups states at
    the dihedral-class level.

``search``
    exclusive perpetual graph searching: every edge must be cleared
    infinitely often.  The task phase is the clear-edge set; states stay
    *concrete* (no dihedral dedup) because "edge e is never clear" is a
    statement about one labelled edge and does not survive per-state
    canonicalisation.

``explore``
    exclusive perpetual exploration, checked in its *node-coverage
    projection*: no fair loop may exist in which some node is never
    occupied.  (Full per-robot coverage follows for the paper's
    algorithms from their rotating behaviour but is not machine-checked
    — see the soundness notes in the README.)

For the searching/exploration tasks the paper's constructive algorithm
covering ``(k, n)`` is selected automatically (Ring Clearing, then
NminusThree); cells outside both proven ranges fall back to the sweep
baseline, which gives the checker a concrete algorithm to defeat on the
paper's impossible cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.configuration import Configuration
    from ..model.algorithm import Algorithm

__all__ = ["TASKS", "TaskSpec", "make_task_spec"]

#: Tasks the model checker understands.
TASKS = ("align", "gathering", "searching", "exploration")


@dataclass(frozen=True)
class TaskSpec:
    """Everything the checker needs to know about one (task, k, n) cell.

    Attributes:
        task: task identifier (one of :data:`TASKS`).
        kind: ``"reach"``, ``"search"`` or ``"explore"`` (see module
            docstring).
        algorithm: the algorithm instance under verification.
        algorithm_name: its human-readable name.
        multiplicity_detection: whether snapshots carry the local
            multiplicity flag.
        exclusive: whether exclusivity violations are collisions.
        canonical: whether states may be deduplicated per dihedral class.
        goal: goal predicate over configurations (``reach`` kind only).
        paper_algorithm: whether the selected algorithm is one of the
            paper's constructive algorithms for this cell (``False`` for
            the sweep fallback).
        note: provenance remark surfaced in results.
    """

    task: str
    kind: str
    algorithm: Algorithm
    algorithm_name: str
    multiplicity_detection: bool
    exclusive: bool
    canonical: bool
    goal: Optional[Callable[[Configuration], bool]]
    paper_algorithm: bool
    note: str


def _goal_gathered(configuration: Configuration) -> bool:
    return configuration.num_occupied == 1


def _goal_c_star(configuration: Configuration) -> bool:
    return configuration.is_c_star()


def _searching_algorithm(n: int, k: int):
    from ..algorithms.baselines import SweepAlgorithm
    from ..algorithms.nminusthree import NminusThreeAlgorithm, nminusthree_supported
    from ..algorithms.ring_clearing import RingClearingAlgorithm, ring_clearing_supported

    if ring_clearing_supported(n, k):
        return RingClearingAlgorithm(), True, "Theorem 6 range"
    if nminusthree_supported(n, k):
        return NminusThreeAlgorithm(), True, "Theorem 7 range"
    return (
        SweepAlgorithm(),
        False,
        "no paper algorithm covers this cell; checking the sweep baseline",
    )


def make_task_spec(task: str, n: int, k: int) -> TaskSpec:
    """Build the adapter for one cell.

    Raises:
        UnsupportedParametersError: for an unknown task name.
    """
    # The algorithms are imported per cell, not with this module: the
    # task names above are on every command's import path.
    from ..algorithms.align import AlignAlgorithm
    from ..algorithms.gathering import GatheringAlgorithm, gathering_supported
    from ..core.errors import UnsupportedParametersError

    if task == "gathering":
        note = (
            "Theorem 8 range" if gathering_supported(n, k) else "outside the Theorem 8 range"
        )
        return TaskSpec(
            task=task,
            kind="reach",
            algorithm=GatheringAlgorithm(),
            algorithm_name=GatheringAlgorithm.name,
            multiplicity_detection=True,
            exclusive=False,
            canonical=True,
            goal=_goal_gathered,
            paper_algorithm=True,
            note=note,
        )
    if task == "align":
        note = "Theorem 1 range" if (k >= 3 and n > k + 2) else "outside the Theorem 1 range"
        return TaskSpec(
            task=task,
            kind="reach",
            algorithm=AlignAlgorithm(),
            algorithm_name=AlignAlgorithm.name,
            multiplicity_detection=False,
            exclusive=True,
            canonical=True,
            goal=_goal_c_star,
            paper_algorithm=True,
            note=note,
        )
    if task in ("searching", "exploration"):
        algorithm, is_paper, note = _searching_algorithm(n, k)
        return TaskSpec(
            task=task,
            kind="search" if task == "searching" else "explore",
            algorithm=algorithm,
            algorithm_name=algorithm.name,
            multiplicity_detection=False,
            exclusive=True,
            canonical=False,
            goal=None,
            paper_algorithm=is_paper,
            note=note,
        )
    raise UnsupportedParametersError(
        f"unknown verification task {task!r}; expected one of {TASKS}"
    )
