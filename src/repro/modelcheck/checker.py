"""Exhaustive adversarial model checking of the implemented algorithms.

:class:`ModelChecker` explores the complete reachable system-state graph
of one algorithm on one ``(k, n)`` cell under an exhaustive adversary
(every activation subset, every view-presentation tie-break — see
:mod:`repro.simulator.branching`) and returns a machine-checked verdict:

``SOLVED``
    every fair execution satisfies the task (reaches the goal for
    terminal tasks, clears every edge / covers every node infinitely
    often for the perpetual ones);

``COLLISION``
    the adversary can violate exclusivity; the result carries a
    minimal-length counterexample trace (BFS order);

``LIVELOCK``
    the adversary can loop fairly forever while violating the task; the
    result carries the reachable fair loop as a witness;

``UNKNOWN`` / ``ERROR``
    the state cap was exceeded, or the algorithm raised a precondition
    error on a reachable state (itself a useful finding).

**Fairness.**  A loop is accepted as *fair* when it contains a step
activating every robot (SSYNC adversary), which makes every LIVELOCK
verdict sound: repeating the loop forever activates every robot
infinitely often.  Loops that are fair only through alternating partial
activations (one robot on one step, another on the next) are not
searched, so an SSYNC ``SOLVED`` means "no reachable fair loop
containing a full-activation step".  The game solver
(:mod:`repro.analysis.game`) uses the stronger per-robot rule: its
adversary also wins with such alternating loops.  Under the
``sequential`` adversary no step activates everybody, so the checker
falls back to a coverage test (every occupied node of every loop state
is activated by some in-loop step); because robots are anonymous,
oblivious and co-located robots are interchangeable, such a loop can be
scheduled fairly, but the witness is weaker — prefer the default SSYNC
adversary for verdicts.  Either way ``SOLVED`` is evidence, not proof,
for the full asynchronous CORDA adversary.

**Engine.**  Exploration runs on the packed-state frontier engine
(:mod:`repro.modelcheck.frontier`): states are single integers, dihedral
canonicalisation is a table-driven min-scan, the searching dynamics are
interval bitmasks, and the SSYNC livelock search skips regions that an
int-bitmask emptiness proof shows to be trap-free.  Its verdict
documents and witness traces are certified against a golden corpus
frozen from an independent tuple-state explorer (every E8 quick-suite
check, both adversaries; see
``tests/modelcheck/test_frontier_equivalence.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from .results import (
    DEFAULT_MAX_STATES,
    ModelCheckResult,
    Verdict,
    Witness,
    WitnessStep,
)
from .tasks import TASKS, TaskSpec, make_task_spec

#: The engines a check runs.  :class:`ModelChecker` imports them where
#: they run; a campaign worker that checks cells names them as its
#: ``engine_modules``, so a pool imports them once, before it forks.
ENGINE_MODULES = ("repro.simulator.branching", "repro.modelcheck.frontier")

__all__ = [
    "DEFAULT_MAX_STATES",
    "ENGINE_MODULES",
    "Verdict",
    "Witness",
    "WitnessStep",
    "ModelCheckResult",
    "ModelChecker",
    "check_cell",
]


class ModelChecker:
    """Explore one cell's reachable state graph and pronounce a verdict.

    Args:
        task: task name (see :data:`repro.modelcheck.tasks.TASKS`).
        n: ring size.
        k: number of robots.
        adversary: ``"ssync"`` (default) or ``"sequential"``.
        max_states: exploration cap; exceeding it yields ``UNKNOWN``.
        spec: pre-built task adapter (overrides ``task`` lookup).
    """

    def __init__(
        self,
        task: str,
        n: int,
        k: int,
        *,
        adversary: str = "ssync",
        max_states: int = DEFAULT_MAX_STATES,
        spec: Optional[TaskSpec] = None,
    ) -> None:
        if adversary not in ("ssync", "sequential"):
            raise ValueError(f"unknown adversary {adversary!r}; expected 'ssync' or 'sequential'")
        custom_spec = spec is not None
        self.spec = spec if spec is not None else make_task_spec(task, n, k)
        self.n = n
        self.k = k
        self.adversary = adversary
        self.max_states = max_states
        # The persistent cell cache is keyed by task name; a custom or
        # unregistered adapter therefore explores with instance-local
        # caches.
        self._registered_spec = not custom_spec and self.spec.task in TASKS
        # The engines are imported where they run, so importing this
        # package (for its task names, say) loads neither of them.
        from ..simulator.branching import BranchingDriver

        self.driver = BranchingDriver(
            self.spec.algorithm, n, multiplicity_detection=self.spec.multiplicity_detection
        )

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def run(self) -> ModelCheckResult:
        """Explore the reachable graph and return the verdict."""
        result = ModelCheckResult(
            task=self.spec.task,
            k=self.k,
            n=self.n,
            algorithm=self.spec.algorithm_name,
            adversary=self.adversary,
            verdict=Verdict.UNKNOWN,
            paper_algorithm=self.spec.paper_algorithm,
        )
        if self.spec.note:
            result.notes.append(self.spec.note)
        from .frontier import FrontierExplorer

        started = perf_counter()
        try:
            FrontierExplorer(
                self.spec,
                self.n,
                self.k,
                self.adversary,
                self.max_states,
                self.driver,
                persistent=self._registered_spec,
            ).run(result)
        finally:
            result.elapsed_s = perf_counter() - started
        return result


def check_cell(
    task: str,
    n: int,
    k: int,
    *,
    adversary: str = "ssync",
    max_states: int = DEFAULT_MAX_STATES,
) -> ModelCheckResult:
    """Convenience wrapper: build a checker and run one cell."""
    return ModelChecker(
        task,
        n,
        k,
        adversary=adversary,
        max_states=max_states,
    ).run()
