"""The simulation engine.

:class:`Simulator` executes one min-CORDA algorithm on one ring against
one scheduler, notifying monitors and recording a
:class:`~repro.simulator.trace.Trace`.  The engine owns all the global
information (node identities, robot identities, global directions); the
algorithm only ever receives anonymous
:class:`~repro.model.snapshot.Snapshot` objects, with the presentation
order of the two directed views chosen adversarially (seeded), so that an
algorithm relying on chirality or node labels cannot silently pass the
test-suite.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.configuration import Configuration
from ..core.errors import (
    CollisionError,
    ExclusivityViolationError,
    InvalidConfigurationError,
    SchedulerError,
    SimulationLimitError,
)
from ..core.ring import CCW, CW, Ring
from ..model.algorithm import Algorithm, DecisionCache
from ..model.robot import RobotState
from ..model.snapshot import Snapshot
from ..scheduler.base import Activation, ActivationKind, Scheduler
from ..scheduler.sequential import SequentialScheduler
from .options import DEFAULT_CONFIG_POOL_SIZE, EngineOptions
from .trace import MoveRecord, Trace, TraceEvent

__all__ = [
    "Simulator",
    "ConfigurationPool",
    "DEFAULT_CONFIG_POOL_SIZE",
    "LookTable",
    "look_direction",
]

#: Predicate over the engine used as a stop condition.
StopCondition = Callable[["Simulator"], bool]

#: Sentinel distinguishing "not passed" from any real keyword value, so
#: explicitly passed keywords can override an ``options`` bundle.
_UNSET = object()


def look_direction(
    algorithm: Algorithm,
    decisions: Optional[DecisionCache],
    configuration: Configuration,
    node: int,
    first_is_cw: bool,
    multiplicity_detection: bool,
) -> int:
    """One exact Look + Compute: the global direction of the robot on ``node``.

    Builds the robot's :class:`Snapshot` with the clockwise view first
    when ``first_is_cw``, asks ``algorithm`` (through ``decisions`` when
    given) and maps the decision back to the ring: :data:`CW`,
    :data:`CCW`, or ``0`` when the robot idles.
    """
    cw_view, ccw_view = configuration.views_of(node)
    views = (cw_view, ccw_view) if first_is_cw else (ccw_view, cw_view)
    snapshot = Snapshot(
        n=configuration.n,
        views=views,
        on_multiplicity=multiplicity_detection and configuration.multiplicity(node) > 1,
    )
    if decisions is not None:
        decision = decisions.compute(algorithm, snapshot)
    else:
        decision = algorithm.compute(snapshot)
    if decision.is_idle:
        return 0
    first_direction = CW if first_is_cw else CCW
    return first_direction if decision.toward_view == 0 else -first_direction


class LookTable(dict):
    """Memo of whole Looks: ``(occupancy, node, first_is_cw) -> direction``.

    The direction is a :func:`look_direction` result.  The occupancy and
    the node fix the robot's snapshot up to the presentation order, so
    the table rests on the same purity contract as
    :class:`~repro.model.algorithm.DecisionCache`.  It is cleared when
    it reaches ``maxsize`` entries.
    """

    __slots__ = ("maxsize",)

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def put(self, key: tuple, direction: int) -> None:
        """Remember one Look's direction, clearing the table when full."""
        if len(self) >= self.maxsize:
            self.clear()
        self[key] = direction


class ConfigurationPool:
    """Bounded LRU of ``counts -> Configuration`` shared across steps.

    Perpetual algorithms revisit configurations, so pooling lets a
    revisited state reuse the same :class:`Configuration` object — and
    with it every memoised derived quantity (gap cycle, supermin view,
    symmetry, canonical key) computed the first time around.  Also used
    by the branching adversary driver
    (:mod:`repro.simulator.branching`), which revisits configurations
    far more aggressively than any single run.
    """

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int = DEFAULT_CONFIG_POOL_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("ConfigurationPool maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[int, ...], Configuration]" = OrderedDict()

    def get(self, counts: Tuple[int, ...]) -> Optional[Configuration]:
        """The pooled configuration for ``counts``, or ``None`` on a miss."""
        entry = self._entries.get(counts)
        if entry is not None:
            self._entries.move_to_end(counts)
        return entry

    def put(self, counts: Tuple[int, ...], configuration: Configuration) -> None:
        """Cache ``configuration`` under ``counts``, evicting the oldest entry."""
        self._entries[counts] = configuration
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def configuration(self, counts: Tuple[int, ...]) -> Configuration:
        """The pooled configuration for validated ``counts`` (built on miss)."""
        cfg = self.get(counts)
        if cfg is None:
            cfg = Configuration.from_trusted_counts(counts)
            self.put(counts, cfg)
        return cfg


class Simulator:
    """Run a min-CORDA algorithm on a ring.

    Args:
        algorithm: the per-robot algorithm.
        initial: initial placement, either a
            :class:`~repro.core.configuration.Configuration` (robot
            identities are assigned to occupied nodes in increasing node
            order, with multiplicities expanded) or a sequence of robot
            positions.
        ring_size: required when ``initial`` is a position sequence.
        scheduler: activation policy; defaults to a round-robin
            sequential scheduler.
        options: an :class:`~repro.simulator.options.EngineOptions`
            bundle carrying all the model/tuning knobs below in one
            value object.  Individual keywords, when passed explicitly,
            override the corresponding bundle field.
        exclusive: enforce the exclusivity property (at most one robot
            per node).  Violations raise :class:`CollisionError` unless
            ``collision_policy`` is ``"record"``.
        multiplicity_detection: grant the robots local (weak)
            multiplicity detection — their snapshots then report whether
            their own node hosts more than one robot.
        monitors: task monitors to notify after every step.
        presentation_seed: seed of the adversary choosing in which order
            the two directed views are presented to each robot.
        collision_policy: ``"raise"`` (default) or ``"record"``.
        chirality: when ``True`` the clockwise view is always presented
            first, effectively granting the robots a common sense of
            direction.  This is *stronger* than the min-CORDA model and is
            only used by baselines and illustrative examples.
        decision_cache: memoise ``algorithm.compute`` per distinct
            snapshot behind a bounded LRU (robots are oblivious, so the
            decision is a pure function of the snapshot), and each whole
            Look per ``(counts, node, presentation order)`` in a Look
            table in front of it.  On by default; disable to force one
            ``compute`` per Look, e.g. when timing an algorithm itself.
            Traces are identical either way.
        decision_cache_size: bound of the decision LRU and of the Look
            table (ignored when the cache is disabled; a full Look table
            is cleared).  Any positive bound yields identical traces —
            only the hit rate changes.
        config_pool_size: bound of the configuration-pool LRU.  Any
            positive bound yields identical traces; a larger pool keeps
            more memoised derived state alive across revisits.

    The engine owns its state incrementally: an occupancy count array, a
    node-to-robots index and a monotonically bumped *state version* are
    updated in O(1) per executed move, and :attr:`configuration` is a
    cache keyed on that version — within one step, all robots' Looks
    share one :class:`Configuration` object and its memoised gap cycle,
    supermin and symmetry state.  Robot positions are engine-owned;
    mutate them only through activations.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        initial: Union[Configuration, Sequence[int]],
        *,
        ring_size: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        options: Optional[EngineOptions] = None,
        exclusive=_UNSET,
        multiplicity_detection=_UNSET,
        monitors: Iterable = (),
        presentation_seed=_UNSET,
        collision_policy=_UNSET,
        chirality=_UNSET,
        decision_cache=_UNSET,
        decision_cache_size=_UNSET,
        config_pool_size=_UNSET,
    ) -> None:
        overrides = {
            name: value
            for name, value in (
                ("exclusive", exclusive),
                ("multiplicity_detection", multiplicity_detection),
                ("presentation_seed", presentation_seed),
                ("collision_policy", collision_policy),
                ("chirality", chirality),
                ("decision_cache", decision_cache),
                ("decision_cache_size", decision_cache_size),
                ("config_pool_size", config_pool_size),
            )
            if value is not _UNSET
        }
        options = (options or EngineOptions()).with_overrides(**overrides)
        self._options = options
        exclusive = options.exclusive
        if isinstance(initial, Configuration):
            configuration = initial
            positions: List[int] = []
            for node in configuration.support:
                positions.extend([node] * configuration.multiplicity(node))
        else:
            if ring_size is None:
                raise InvalidConfigurationError(
                    "ring_size is required when initial positions are given as a sequence"
                )
            positions = [int(p) for p in initial]
            configuration = Configuration.from_positions(ring_size, positions)
        if exclusive and not configuration.is_exclusive:
            raise ExclusivityViolationError(
                "initial configuration violates the exclusivity property"
            )

        self._algorithm = algorithm
        self._ring = Ring(configuration.n)
        self._robots: List[RobotState] = [
            RobotState(robot_id=i, position=p) for i, p in enumerate(positions)
        ]
        self._scheduler = scheduler if scheduler is not None else SequentialScheduler()
        self._exclusive = exclusive
        self._multiplicity_detection = options.multiplicity_detection
        self._monitors = list(monitors)
        self._rng = random.Random(options.presentation_seed)
        self._collision_policy = options.collision_policy
        self._chirality = options.chirality
        self._step_count = 0

        # Incremental engine-owned state, updated in O(1) per executed
        # move; `configuration` materialises it lazily, at most once per
        # state version.
        self._counts: List[int] = list(configuration.counts)
        self._node_robots: Dict[int, List[int]] = {}
        for robot in self._robots:
            self._node_robots.setdefault(robot.position, []).append(robot.robot_id)
        self._pending: Set[int] = set()
        self._state_version = 0
        self._config_pool = ConfigurationPool(options.config_pool_size)
        # The validated initial configuration doubles as the version-0
        # cache entry — no rebuild on first access.
        self._config_pool.put(configuration.counts, configuration)
        self._cached_configuration = configuration
        self._cached_version = 0
        self._decision_cache: Optional[DecisionCache] = (
            DecisionCache(options.decision_cache_size) if options.decision_cache else None
        )
        # Keyed on the counts tuple; it exists exactly when the decision
        # cache does, whose purity contract it shares, and has its bound.
        self._look_table: Optional[LookTable] = (
            LookTable(options.decision_cache_size) if options.decision_cache else None
        )
        self._trace = Trace(
            initial_configuration=configuration,
            initial_positions=tuple(positions),
        )
        self._scheduler.reset()
        for monitor in self._monitors:
            monitor.on_start(self)

    # ------------------------------------------------------------------ #
    # public state
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> Algorithm:
        """The algorithm under simulation."""
        return self._algorithm

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler driving the simulation."""
        return self._scheduler

    @property
    def ring(self) -> Ring:
        """The underlying ring."""
        return self._ring

    @property
    def ring_size(self) -> int:
        """Number of nodes of the ring."""
        return self._ring.n

    @property
    def num_robots(self) -> int:
        """Number of robots."""
        return len(self._robots)

    @property
    def step_count(self) -> int:
        """Number of scheduler steps executed so far."""
        return self._step_count

    @property
    def trace(self) -> Trace:
        """The trace recorded so far."""
        return self._trace

    @property
    def options(self) -> EngineOptions:
        """The resolved engine option bundle this engine runs under."""
        return self._options

    @property
    def exclusive(self) -> bool:
        """Whether the exclusivity property is being enforced."""
        return self._exclusive

    @property
    def multiplicity_detection(self) -> bool:
        """Whether robots enjoy local multiplicity detection."""
        return self._multiplicity_detection

    def robot(self, robot_id: int) -> RobotState:
        """The runtime state of one robot."""
        return self._robots[robot_id]

    def robots(self) -> Tuple[RobotState, ...]:
        """All robot runtime states."""
        return tuple(self._robots)

    @property
    def positions(self) -> Tuple[int, ...]:
        """Current robot positions indexed by robot identifier."""
        return tuple(robot.position for robot in self._robots)

    @property
    def state_version(self) -> int:
        """Monotonic counter bumped whenever an executed move changes the state."""
        return self._state_version

    @property
    def decision_cache(self) -> Optional[DecisionCache]:
        """The engine's decision cache (``None`` when disabled)."""
        return self._decision_cache

    @property
    def configuration(self) -> Configuration:
        """The current configuration, cached per state version.

        All Looks of one step receive the same object, so memoised
        derived state (gap cycle, supermin, symmetry, canonical key) is
        computed at most once per distinct configuration.
        """
        if self._cached_version != self._state_version:
            self._cached_configuration = self._config_pool.configuration(tuple(self._counts))
            self._cached_version = self._state_version
        return self._cached_configuration

    def robots_at(self, node: int) -> Tuple[int, ...]:
        """Identifiers of the robots currently on ``node`` (ascending)."""
        return tuple(self._node_robots.get(node, ()))

    def pending_robots(self) -> Tuple[int, ...]:
        """Identifiers of the robots holding a pending (not yet executed) move."""
        return tuple(sorted(self._pending))

    # ------------------------------------------------------------------ #
    # phase primitives
    # ------------------------------------------------------------------ #
    def _look_and_compute(self, robot_id: int) -> Optional[int]:
        """Run Look + Compute for one robot; store and return the pending target.

        The presentation order is drawn first, so the RNG sequence does
        not depend on whether the Look table answers.
        """
        robot = self._robots[robot_id]
        configuration = self.configuration
        position = robot.position
        first_is_cw = True if self._chirality else self._rng.random() < 0.5
        table = self._look_table
        key = (configuration.counts, position, first_is_cw)
        direction = None if table is None else table.get(key)
        if direction is None:
            direction = look_direction(
                self._algorithm,
                self._decision_cache,
                configuration,
                position,
                first_is_cw,
                self._multiplicity_detection,
            )
            if table is not None:
                table.put(key, direction)
        robot.looks += 1
        if not direction:
            robot.idles += 1
            robot.pending_target = None
            self._pending.discard(robot_id)
            return None
        target = (position + direction) % self._ring.n
        robot.pending_target = target
        self._pending.add(robot_id)
        return target

    def _execute_pending(self, robot_ids: Sequence[int]) -> List[MoveRecord]:
        """Execute the pending moves of the given robots simultaneously."""
        records: List[MoveRecord] = []
        for robot_id in robot_ids:
            robot = self._robots[robot_id]
            if robot.pending_target is None:
                continue
            records.append(
                MoveRecord(robot_id=robot_id, source=robot.position, target=robot.pending_target)
            )
        for record in records:
            robot = self._robots[record.robot_id]
            self._relocate(robot, record.target)
            robot.moves += 1
            robot.pending_target = None
            self._pending.discard(record.robot_id)
        if records:
            self._state_version += 1
        return records

    def _relocate(self, robot: RobotState, target: int) -> None:
        """Move one robot in the incremental occupancy state (O(1))."""
        source = robot.position
        self._counts[source] -= 1
        self._counts[target] += 1
        bucket = self._node_robots[source]
        bucket.remove(robot.robot_id)
        if not bucket:
            del self._node_robots[source]
        insort(self._node_robots.setdefault(target, []), robot.robot_id)
        robot.position = target

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def apply_activation(self, activation: Activation) -> TraceEvent:
        """Execute one activation and record it on the trace."""
        for robot_id in activation.robots:
            if not 0 <= robot_id < self.num_robots:
                raise SchedulerError(f"activation references unknown robot {robot_id}")
        if activation.kind is ActivationKind.CYCLE:
            for robot_id in activation.robots:
                self._look_and_compute(robot_id)
            moves = self._execute_pending(activation.robots)
        elif activation.kind is ActivationKind.LOOK:
            for robot_id in activation.robots:
                self._look_and_compute(robot_id)
            moves = []
        elif activation.kind is ActivationKind.MOVE:
            moves = self._execute_pending(activation.robots)
        else:  # pragma: no cover - exhaustive enum
            raise SchedulerError(f"unknown activation kind {activation.kind!r}")

        configuration = self.configuration
        collision = self._exclusive and not configuration.is_exclusive
        event = TraceEvent(
            step=self._step_count,
            kind=activation.kind,
            robots=activation.robots,
            moves=tuple(moves),
            configuration_after=configuration,
            collision=collision,
        )
        self._step_count += 1
        self._trace.append(event)
        for monitor in self._monitors:
            monitor.on_step(self, moves, configuration)
        if collision and self._collision_policy == "raise":
            raise CollisionError(
                f"exclusivity violated at step {event.step}: "
                f"configuration {configuration.ascii_art()!r}"
            )
        return event

    def step(self) -> TraceEvent:
        """Ask the scheduler for the next activation and execute it."""
        activation = self._scheduler.next_activation(self)
        return self.apply_activation(activation)

    def run(self, max_steps: int, stop: Optional[StopCondition] = None) -> Trace:
        """Run for at most ``max_steps`` steps (optionally stopping early).

        Args:
            max_steps: step budget.
            stop: optional predicate over the engine; the run stops after
                the first step for which it returns ``True``.

        Returns:
            The accumulated trace (also available via :attr:`trace`).
        """
        for _ in range(max_steps):
            self.step()
            if stop is not None and stop(self):
                self._trace.stopped_reason = "stop-condition"
                return self._trace
        self._trace.stopped_reason = "max-steps"
        return self._trace

    def run_until(self, goal: StopCondition, max_steps: int) -> Trace:
        """Run until ``goal`` holds; raise if the budget is exhausted first.

        Raises:
            SimulationLimitError: when ``goal`` is still false after
                ``max_steps`` steps.
        """
        if goal(self):
            self._trace.stopped_reason = "goal-already-satisfied"
            return self._trace
        trace = self.run(max_steps, stop=goal)
        if trace.stopped_reason != "stop-condition":
            raise SimulationLimitError(
                f"goal not reached within {max_steps} steps "
                f"(algorithm={self._algorithm.name}, scheduler={self._scheduler.name})"
            )
        trace.stopped_reason = "goal-reached"
        return trace

    def run_until_stable(self, max_steps: int, quiet_window: Optional[int] = None) -> Trace:
        """Run until no robot moves or holds a pending move for a full window.

        Args:
            max_steps: step budget.
            quiet_window: number of consecutive quiet steps required;
                defaults to twice the number of robots (enough for every
                robot to have been activated at least once under any fair
                scheduler used in the library).
        """
        window = quiet_window if quiet_window is not None else 2 * self.num_robots
        quiet = 0
        for _ in range(max_steps):
            event = self.step()
            if event.moves or self.pending_robots():
                quiet = 0
            else:
                quiet += 1
                if quiet >= window:
                    self._trace.stopped_reason = "stable"
                    return self._trace
        self._trace.stopped_reason = "max-steps"
        return self._trace
