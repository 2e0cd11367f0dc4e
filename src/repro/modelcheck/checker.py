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
infinitely often.  Under the ``sequential`` adversary no step activates
everybody, so the checker falls back to a coverage test (every occupied
node of every loop state is activated by some in-loop step); because
robots are anonymous, oblivious and co-located robots are
interchangeable, such a loop can be scheduled fairly, but the witness is
weaker — prefer the default SSYNC adversary for verdicts.  Conversely
``SOLVED`` certifies the absence of such loops: like the game solver's
``CANDIDATE_FOUND`` (see :mod:`repro.analysis.game`), it is exact for
the adversary class explored and evidence (not proof) for the full
asynchronous CORDA adversary.

**Engines.**  Exploration runs on the packed-state frontier engine
(:mod:`repro.modelcheck.frontier`): states are single integers, dihedral
canonicalisation is a table-driven min-scan, the searching dynamics are
interval bitmasks, and the frontier can optionally be sharded across a
process pool (``shards > 1``) with byte-identical output.  When NumPy is
importable the default resolves to the array-batched vector engine
(:mod:`repro.modelcheck.vector`), which processes whole BFS waves as
int64 arrays; cells wider than its 62-bit budget fall back to the packed
engine.  Both engines produce byte-identical verdict documents and
witness traces, certified against a golden corpus frozen from an
independent tuple-state explorer (every E8 quick-suite check, both
adversaries; see ``tests/modelcheck/test_frontier_equivalence.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from ..simulator.branching import BranchingDriver
from .engines import resolve_engine
from .frontier import FrontierExplorer
from .results import (
    DEFAULT_MAX_STATES,
    ModelCheckResult,
    Verdict,
    Witness,
    WitnessStep,
)
from .tasks import TASKS, TaskSpec, make_task_spec

__all__ = [
    "DEFAULT_MAX_STATES",
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
        engine: ``"auto"`` (default), ``"packed"`` or ``"vector"``,
            resolved by :func:`repro.modelcheck.engines.resolve_engine`
            — ``auto`` picks the NumPy-vectorized engine when NumPy is
            importable, and ``vector`` degrades to ``packed`` when it is
            not.  Both engines produce byte-identical results; the
            explicit names exist so differential tests and benchmarks
            can compare them.
        shards: frontier partitions expanded in parallel (``1`` =
            serial).  Ignored by custom ``spec`` adapters, whose shard
            workers could not be reconstructed by name in another
            process.
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
        engine: str = "auto",
        shards: int = 1,
    ) -> None:
        if adversary not in ("ssync", "sequential"):
            raise ValueError(f"unknown adversary {adversary!r}; expected 'ssync' or 'sequential'")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        custom_spec = spec is not None
        self.spec = spec if spec is not None else make_task_spec(task, n, k)
        self.n = n
        self.k = k
        self.adversary = adversary
        self.max_states = max_states
        self.engine = resolve_engine(engine)
        # The persistent cell cache and the sharded workers both rebuild
        # the task adapter by name; a custom or unregistered adapter
        # therefore explores serially with instance-local caches.
        self._registered_spec = not custom_spec and self.spec.task in TASKS
        self.shards = shards if self._registered_spec else 1
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
        started = perf_counter()
        explorer_cls = FrontierExplorer
        if self.engine == "vector":
            from .vector import VectorFrontierExplorer

            # Cells whose packed states exceed the int64 batch width
            # fall back to the (identical) packed engine.
            if VectorFrontierExplorer.supports_cell(self.spec, self.n, self.k):
                explorer_cls = VectorFrontierExplorer
        try:
            explorer_cls(
                self.spec,
                self.n,
                self.k,
                self.adversary,
                self.max_states,
                self.driver,
                shards=self.shards,
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
    engine: str = "auto",
    shards: int = 1,
) -> ModelCheckResult:
    """Convenience wrapper: build a checker and run one cell."""
    return ModelChecker(
        task,
        n,
        k,
        adversary=adversary,
        max_states=max_states,
        engine=engine,
        shards=shards,
    ).run()
