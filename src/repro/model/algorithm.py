"""Algorithm protocol and the global-rule adapter.

The paper describes its algorithms in a *global* style ("the robot whose
view equals the supermin view moves towards ...") and then argues that
each robot can decide, from its own snapshot alone, whether it is the
designated robot.  The library mirrors this structure:

* :class:`Algorithm` is the strict per-robot interface: a pure function
  from :class:`~repro.model.snapshot.Snapshot` to
  :class:`~repro.model.decisions.Decision` — exactly what an oblivious,
  anonymous, uniform robot may compute.

* :class:`GlobalRuleAlgorithm` is a convenience base class implementing
  the snapshot-to-decision plumbing once: it reconstructs the
  configuration in the robot's own frame (self at node ``0``, positive
  direction = the direction of ``views[0]``), calls the subclass's
  :meth:`GlobalRuleAlgorithm.plan` on it, and checks whether node ``0``
  is among the planned movers.  Provided the planner is *equivariant*
  (its output commutes with ring rotations and reflections — which any
  rule phrased purely in terms of views automatically is), every robot
  reaches a consistent conclusion and the per-robot algorithm is a
  faithful min-CORDA algorithm.

* :meth:`GlobalRuleAlgorithm.global_plan` exposes that plan: on a
  configuration where every robot's decision is a frame change of one
  plan it returns the plan, so the class-plan table
  (:mod:`repro.simulator.classplan`) behind the branching adversary
  driver and the batched engine evaluates one plan per support class
  instead of one snapshot per robot and view presentation.  It returns
  ``None`` wherever decisions depend on snapshot-only data
  (presentation order, the multiplicity flag).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, Mapping, Optional

from ..core.configuration import Configuration
from ..core.errors import AlgorithmPreconditionError
from ..simulator.options import DEFAULT_DECISION_CACHE_SIZE
from .decisions import Decision
from .snapshot import Snapshot

__all__ = [
    "Algorithm",
    "GlobalRuleAlgorithm",
    "PlannedMoves",
    "DecisionCache",
    "DEFAULT_DECISION_CACHE_SIZE",
    "is_pure_global_rule",
]

#: A plan: mapping from mover node to its adjacent target node, expressed
#: in the labelling of the configuration handed to the planner.
PlannedMoves = Mapping[int, int]


class Algorithm(ABC):
    """A min-CORDA algorithm: a pure function from snapshot to decision.

    Implementations must be deterministic and must not keep state across
    invocations (the robots are oblivious); the simulator may call
    :meth:`compute` for different robots and different times in any
    order.
    """

    #: Human-readable algorithm name, used in traces and reports.
    name: str = "algorithm"

    @abstractmethod
    def compute(self, snapshot: Snapshot) -> Decision:
        """Return the decision of a robot that observed ``snapshot``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class DecisionCache:
    """Bounded LRU memoising :meth:`Algorithm.compute` per distinct snapshot.

    Robots are oblivious, so an algorithm's decision is a pure function of
    the snapshot ``(n, views, on_multiplicity)`` — the cache is therefore
    never invalidated, only evicted.  Each cache is owned by exactly one
    consumer (one engine, hence one algorithm instance and one ring
    size); the algorithm-identity component of the conceptual cache key
    is that ownership, which avoids keying on recyclable ``id()`` values.
    Schedulers that activate many robots on one configuration then pay
    one ``compute`` per distinct view instead of one per activation.
    The process-wide class-plan tables
    (:mod:`repro.simulator.classplan`) borrow no owner's cache: each
    self-check asks through a fresh one.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = DEFAULT_DECISION_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("DecisionCache maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, Decision]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def compute(self, algorithm: Algorithm, snapshot: Snapshot) -> Decision:
        """Return ``algorithm.compute(snapshot)``, memoised."""
        key = (snapshot.n, snapshot.views, snapshot.on_multiplicity)
        entries = self._entries
        decision = entries.get(key)
        if decision is not None:
            entries.move_to_end(key)
            self.hits += 1
            return decision
        decision = algorithm.compute(snapshot)
        self.misses += 1
        entries[key] = decision
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
        return decision


class GlobalRuleAlgorithm(Algorithm):
    """Base class for algorithms defined by an equivariant global planner."""

    def compute(self, snapshot: Snapshot) -> Decision:
        """Derive this robot's decision from the global plan at its frame."""
        configuration = snapshot.local_configuration()
        moves = self.plan_for_snapshot(configuration, snapshot)
        if 0 not in moves:
            return Decision.idle()
        target = moves[0]
        n = snapshot.n
        if target == 1 % n:
            return Decision.move_toward(0)
        if target == (n - 1) % n:
            return Decision.move_toward(1)
        raise AlgorithmPreconditionError(
            f"planner asked the robot at node 0 to move to non-adjacent node {target}"
        )

    def plan_for_snapshot(
        self, configuration: Configuration, snapshot: Snapshot
    ) -> PlannedMoves:
        """Hook allowing subclasses to use snapshot-only data (e.g. multiplicity).

        The default simply delegates to :meth:`plan`.
        """
        return self.plan(configuration)

    @abstractmethod
    def plan(self, configuration: Configuration) -> PlannedMoves:
        """Return the moves the algorithm prescribes in this configuration.

        The mapping associates each mover node with the adjacent node it
        must move to.  The rule must be equivariant: relabelling the
        configuration by a ring automorphism must relabel the output in
        the same way.  Rules phrased in terms of views (as all of the
        paper's rules are) satisfy this automatically.
        """

    def global_plan(self, configuration: Configuration) -> Optional[PlannedMoves]:
        """The plan every robot's decision in ``configuration`` is a frame change of.

        ``configuration`` is the multiplicity-blind support, which is
        what every robot's snapshot reconstructs.  Returns ``None`` when
        decisions in this configuration depend on snapshot-only data;
        callers then evaluate each snapshot.  The default returns
        :meth:`plan` for pure global rules (:func:`is_pure_global_rule`)
        and ``None`` otherwise.  A subclass overriding
        :meth:`plan_for_snapshot` may override this hook to return the
        plan on the configurations where its snapshot hook ignores the
        snapshot.
        """
        if is_pure_global_rule(self):
            return self.plan(configuration)
        return None

    # Convenience used by tests and by the engine's "global dry-run" mode. #
    def planned_moves(self, configuration: Configuration) -> Dict[int, int]:
        """Public wrapper returning a concrete dict copy of :meth:`plan`."""
        return dict(self.plan(configuration))


def is_pure_global_rule(algorithm: Algorithm) -> bool:
    """Whether an algorithm's decisions are a pure function of its plan.

    True for :class:`GlobalRuleAlgorithm` subclasses that override
    neither :meth:`GlobalRuleAlgorithm.compute` nor
    :meth:`GlobalRuleAlgorithm.plan_for_snapshot` — for those, the
    decision of a robot at global node ``p`` in configuration ``C`` is
    determined by ``plan(C)`` alone (equivariance makes it independent
    of the adversary's view presentation order and of snapshot-only
    data like multiplicity flags).  Such algorithms admit a *global*
    evaluation fast path: compute one plan per configuration and read
    every robot's move off it, instead of building ``2k`` directed-view
    snapshots.  The test is the default of
    :meth:`GlobalRuleAlgorithm.global_plan`, which the class-plan table
    (:mod:`repro.simulator.classplan`) asks and which non-pure
    subclasses may override per configuration.
    """
    algorithm_type = type(algorithm)
    return (
        isinstance(algorithm, GlobalRuleAlgorithm)
        and algorithm_type.compute is GlobalRuleAlgorithm.compute
        and algorithm_type.plan_for_snapshot is GlobalRuleAlgorithm.plan_for_snapshot
    )
