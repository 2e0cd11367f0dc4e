"""The batched Look-Compute-Move engine.

One :class:`BatchEngine` advances a batch of independent simulations
("lanes") of the *same* algorithm on the *same* ring size under the
*same* scheduler policy.  The batch state is a ``(batch, n)`` occupancy
matrix of stdlib rows (:mod:`repro.batchsim.backends`); everything
expensive is shared across lanes:

* for pure global-rule algorithms, one
  :class:`~repro.simulator.batchplan.GlobalPlanTable` turns every Look
  into a dictionary hit keyed on the lane's counts row — no snapshots,
  no per-view decision keys, no RNG draws;
* other algorithms take the exact per-snapshot path of the incremental
  engine (same per-lane presentation RNG, same Look table and
  :class:`~repro.model.algorithm.DecisionCache` semantics), with the
  Look table, decision cache and configuration pool shared across the
  whole batch;
* every round-robin lane, monitored or not, runs in one hot loop, and
  a lane with no monitors and no event log fast-forwards whole periods
  of a periodic orbit (a Look-table lane only periods in which no Look
  depended on the presentation order);
* stop conditions are predicates over the configuration and are
  memoised per distinct occupancy row, so a convergence check costs one
  dictionary hit per step instead of a property chain.

Byte-identity contract: for every lane ``i``,
``lane_trace(i).canonical_bytes()`` equals the canonical bytes of the
trace produced by ``Simulator(algorithm, initials[i],
scheduler=scheduler_factory(i), options=options)`` executing the same
run — the differential suite in ``tests/batchsim/`` enforces this under
every scheduler.  The engine may *skip* presentation
RNG draws on the plan-table path (traces record moves, not draws; pure
global-rule decisions are presentation-independent), which is exactly
why the certification is done on serialised traces rather than on RNG
states.  Look-table lanes draw exactly as the per-run engine does, one
draw per skipped step included.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.configuration import Configuration
from ..core.cyclic import packed_codec
from ..core.errors import (
    AlgorithmPreconditionError,
    CollisionError,
    ExclusivityViolationError,
    SchedulerError,
    SimulationLimitError,
)
from ..model.algorithm import Algorithm, DecisionCache, is_pure_global_rule
from ..scheduler.base import Activation, ActivationKind, Scheduler
from ..scheduler.sequential import SequentialScheduler
from ..scheduler.synchronous import SynchronousScheduler
from ..simulator.batchplan import INVALID_TARGET, GlobalPlanTable
from ..simulator.engine import ConfigurationPool, LookTable, look_direction
from ..simulator.options import EngineOptions
from ..simulator.trace import MoveRecord, Trace, TraceEvent
from .backends import StdlibBackend

__all__ = ["BatchEngine", "BatchLane", "BatchLaneView"]

#: Stop/goal predicate over a :class:`Configuration` (memoised per row).
ConfigurationPredicate = Callable[[Configuration], bool]

#: Scheduler driver kinds (selected per lane from the scheduler instance).
_DRIVER_RR = "rr"
_DRIVER_SYNC = "sync"
_DRIVER_GENERIC = "generic"


class _RobotView:
    """Read-only robot state handed to schedulers and adversary callbacks."""

    __slots__ = ("_lane", "robot_id")

    def __init__(self, lane: "BatchLane", robot_id: int) -> None:
        self._lane = lane
        self.robot_id = robot_id

    @property
    def position(self) -> int:
        """The robot's current node."""
        return self._lane.positions[self.robot_id]

    @property
    def pending_target(self) -> Optional[int]:
        """Pending move target, or ``None``."""
        return self._lane.pending.get(self.robot_id)

    @property
    def has_pending_move(self) -> bool:
        """Whether a computed move is still waiting to be executed."""
        return self.robot_id in self._lane.pending


class BatchLaneView:
    """One lane through the :class:`~repro.simulator.engine.Simulator` API.

    Schedulers, adversary callbacks, stop conditions and task monitors
    written against the incremental engine's public read surface
    (``num_robots``, ``robot(r)``, ``step_count``, ``configuration``,
    ``ring_size``, ``positions``, ``pending_robots``) work unchanged
    against a lane of the batched engine.
    """

    __slots__ = ("_engine", "_lane", "_robots")

    def __init__(self, engine: "BatchEngine", lane: "BatchLane") -> None:
        self._engine = engine
        self._lane = lane
        self._robots = [_RobotView(lane, r) for r in range(len(lane.positions))]

    @property
    def ring_size(self) -> int:
        """Number of nodes of the ring."""
        return self._engine.ring_size

    @property
    def num_robots(self) -> int:
        """Number of robots in this lane."""
        return len(self._robots)

    @property
    def step_count(self) -> int:
        """Scheduler steps executed in this lane so far."""
        return self._lane.step_count

    @property
    def configuration(self) -> Configuration:
        """The lane's current configuration (pooled)."""
        return self._engine.pool.configuration(self._lane.counts_tuple)

    @property
    def positions(self) -> Tuple[int, ...]:
        """Current robot positions indexed by robot identifier."""
        return tuple(self._lane.positions)

    def robot(self, robot_id: int) -> _RobotView:
        """The runtime state of one robot."""
        return self._robots[robot_id]

    def robots_at(self, node: int) -> Tuple[int, ...]:
        """Identifiers of the robots currently on ``node`` (ascending)."""
        return tuple(
            r for r, p in enumerate(self._lane.positions) if p == node
        )

    def pending_robots(self) -> Tuple[int, ...]:
        """Identifiers of the robots holding a pending move."""
        return tuple(sorted(self._lane.pending))


class BatchLane:
    """Mutable per-lane state (positions, pending moves, compact events).

    Exposed read-only through :meth:`BatchEngine.lane`; mutate only
    through the engine.
    """

    __slots__ = (
        "index",
        "positions",
        "pending",
        "rng",
        "scheduler",
        "driver",
        "rr",
        "all_robots",
        "row",
        "key",
        "counts_tuple",
        "mult_nodes",
        "step_count",
        "total_moves",
        "stopped_reason",
        "events",
        "monitors",
        "initial_configuration",
        "initial_positions",
        "view",
        "orbit",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.stopped_reason: Optional[str] = None
        self.step_count = 0
        self.total_moves = 0
        self.rr = 0
        self.events: List[tuple] = []
        self.monitors = None
        self.view: Optional[BatchLaneView] = None
        #: round-boundary state memory for periodic-orbit fast-forward:
        #: normalised positions -> (step, total_moves, base node, ties).
        self.orbit: Dict[Tuple[int, ...], Tuple[int, int, int, int]] = {}


class BatchEngine:
    """Advance many simulations of one algorithm in lock-stepped lanes.

    Args:
        algorithm: the algorithm every lane runs (one shared instance —
            algorithms are stateless pure functions by contract).
        initials: one starting :class:`Configuration` per lane; all must
            share the same ring size.  Robot identities are assigned per
            lane exactly as the incremental engine does (occupied nodes
            in increasing order, multiplicities expanded).
        scheduler_factory: ``lane_index -> Scheduler`` building each
            lane's scheduler; defaults to a fresh round-robin
            :class:`~repro.scheduler.sequential.SequentialScheduler` per
            lane (the incremental engine's default).  Round-robin
            sequential and fully synchronous schedulers are driven by
            inlined fast drivers; every other scheduler instance is
            consulted per step through a :class:`BatchLaneView`.
        options: shared :class:`EngineOptions` bundle (defaults applied
            as in the incremental engine).
        monitors_factory: optional ``lane_index -> iterable of monitors``;
            every monitor sees every step of its lane, as under the
            incremental engine, so monitored lanes never fast-forward
            periodic orbits.
        record_events: record per-step events enabling
            :meth:`lane_trace`.  Disable for throughput when only the
            aggregate counters (``total_moves``, ``step_count``,
            ``stopped_reason``) are needed.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        initials: Sequence[Configuration],
        *,
        scheduler_factory: Optional[Callable[[int], Scheduler]] = None,
        options: Optional[EngineOptions] = None,
        monitors_factory: Optional[Callable[[int], Iterable]] = None,
        record_events: bool = True,
    ) -> None:
        if not initials:
            raise ValueError("a batch needs at least one initial configuration")
        options = options if options is not None else EngineOptions()
        self._algorithm = algorithm
        self._options = options
        self._record_events = record_events
        self._exclusive = options.exclusive
        self._multiplicity_detection = options.multiplicity_detection
        self._chirality = options.chirality
        self._collision_raise = options.collision_policy == "raise"
        self._n = initials[0].n
        for configuration in initials:
            if configuration.n != self._n:
                raise ValueError("all lanes of a batch must share one ring size")
        if scheduler_factory is None:
            scheduler_factory = lambda index: SequentialScheduler()  # noqa: E731

        pool_size = min(1 << 16, max(options.config_pool_size, 32 * len(initials)))
        self.pool = ConfigurationPool(pool_size)
        self._decisions: Optional[DecisionCache] = (
            DecisionCache(options.decision_cache_size) if options.decision_cache else None
        )
        #: slow-path Look table keyed on the lane's row bytes, shared by all lanes.
        self._look_table: Optional[LookTable] = (
            LookTable(options.decision_cache_size) if options.decision_cache else None
        )
        self._plan_table: Optional[GlobalPlanTable] = (
            GlobalPlanTable(algorithm, self._n, pool=self.pool)
            if is_pure_global_rule(algorithm)
            else None
        )
        #: counts-row bytes -> validated plan dict (fast-path hot cache).
        self._plans: Dict[bytes, Dict[int, object]] = {}
        #: counts-row bytes -> plain counts tuple (shared across lanes).
        self._tuples: Dict[bytes, Tuple[int, ...]] = {}

        self._backend = StdlibBackend([c.counts for c in initials])
        self._lanes: List[BatchLane] = []
        for index, configuration in enumerate(initials):
            if self._exclusive and not configuration.is_exclusive:
                raise ExclusivityViolationError(
                    "initial configuration violates the exclusivity property"
                )
            lane = BatchLane(index)
            positions: List[int] = []
            for node in configuration.support:
                positions.extend([node] * configuration.multiplicity(node))
            lane.positions = positions
            lane.pending = {}
            lane.rng = random.Random(options.presentation_seed)
            lane.scheduler = scheduler_factory(index)
            lane.scheduler.reset()
            lane.driver = self._select_driver(lane.scheduler)
            lane.all_robots = tuple(range(len(positions)))
            lane.row = self._backend.row(index)
            counts = configuration.counts
            lane.counts_tuple = counts
            lane.key = lane.row.tobytes()
            self._tuples.setdefault(lane.key, counts)
            self.pool.put(counts, configuration)
            lane.mult_nodes = sum(1 for c in counts if c >= 2)
            lane.initial_configuration = configuration
            lane.initial_positions = tuple(positions)
            lane.view = BatchLaneView(self, lane)
            if monitors_factory is not None:
                monitors = list(monitors_factory(index))
                lane.monitors = monitors or None
                for monitor in monitors:
                    monitor.on_start(lane.view)
            self._lanes.append(lane)

    @staticmethod
    def _select_driver(scheduler: Scheduler) -> str:
        """Pick the per-lane driver for a scheduler instance."""
        scheduler_type = type(scheduler)
        if (
            isinstance(scheduler, SequentialScheduler)
            and scheduler_type.next_activation is SequentialScheduler.next_activation
            and getattr(scheduler, "_policy", None) == "round_robin"
        ):
            return _DRIVER_RR
        if scheduler_type is SynchronousScheduler:
            return _DRIVER_SYNC
        return _DRIVER_GENERIC

    # ------------------------------------------------------------------ #
    # public state
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> Algorithm:
        """The algorithm every lane runs."""
        return self._algorithm

    @property
    def options(self) -> EngineOptions:
        """The shared engine option bundle."""
        return self._options

    @property
    def ring_size(self) -> int:
        """Number of nodes of the (shared) ring."""
        return self._n

    @property
    def num_lanes(self) -> int:
        """Number of lanes in the batch."""
        return len(self._lanes)

    def lane(self, index: int) -> BatchLane:
        """The per-lane state record (treat as read-only)."""
        return self._lanes[index]

    def lane_view(self, index: int) -> BatchLaneView:
        """A Simulator-shaped read view of one lane."""
        return self._lanes[index].view

    def packed_states(self) -> List[int]:
        """Every lane's occupancy vector packed through the shared codec.

        Uses :meth:`PackedSequenceCodec.pack_many` over the lane rows.
        """
        max_count = max(max(lane.counts_tuple) for lane in self._lanes)
        codec = packed_codec(self._n, max(1, max_count))
        return self._backend.pack_all(codec)

    def lane_trace(self, index: int) -> Trace:
        """Materialise lane ``index``'s full :class:`Trace`.

        The result is byte-identical (``canonical_bytes``) to the trace
        the incremental engine records for the same run.
        """
        if not self._record_events:
            raise RuntimeError(
                "event recording is disabled (record_events=False); "
                "aggregate counters are still available on lane()"
            )
        lane = self._lanes[index]
        trace = Trace(
            initial_configuration=lane.initial_configuration,
            initial_positions=lane.initial_positions,
        )
        configuration_of = self.pool.configuration
        for step, kind, robots, moves, counts, collision in lane.events:
            trace.append(
                TraceEvent(
                    step=step,
                    kind=kind,
                    robots=robots,
                    moves=tuple(MoveRecord(*move) for move in moves),
                    configuration_after=configuration_of(counts),
                    collision=collision,
                )
            )
        trace.stopped_reason = lane.stopped_reason
        return trace

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_steps: int,
        *,
        stop_configuration: Optional[ConfigurationPredicate] = None,
        stop_invariant: bool = False,
    ) -> None:
        """Advance every lane by up to ``max_steps`` further steps.

        ``stop_configuration`` is checked after every step of a lane
        (memoised per distinct occupancy row); a lane stopping early gets
        ``stopped_reason == "stop-condition"``, others ``"max-steps"`` —
        the incremental engine's :meth:`Simulator.run` semantics.

        ``stop_invariant`` declares the predicate invariant under ring
        rotations and reflections (true for every convergence goal in
        the paper: C*, gathered, aligned).  It lets the memo key on the
        dihedral canonical form and keeps periodic-orbit fast-forwarding
        enabled; it never changes results for predicates that really are
        invariant.
        """
        memo = _StopMemo(self, stop_configuration, stop_invariant)
        for lane in self._lanes:
            lane.stopped_reason = self._run_lane(lane, max_steps, memo)

    def run_until_configuration(
        self,
        goal: ConfigurationPredicate,
        max_steps: int,
        *,
        invariant: bool = False,
    ) -> None:
        """Advance every lane until its configuration satisfies ``goal``.

        Mirrors :meth:`Simulator.run_until`: a lane already satisfying
        the goal records ``"goal-already-satisfied"`` without stepping, a
        lane reaching it records ``"goal-reached"``, and the first lane
        (in lane order) exhausting ``max_steps`` raises
        :class:`SimulationLimitError` — exactly like a per-run sample
        loop aborting at its first failing sample.  ``invariant`` is
        :meth:`run`'s ``stop_invariant``.
        """
        memo = _StopMemo(self, goal, invariant)
        for lane in self._lanes:
            if memo.satisfied(lane.key, lane.counts_tuple):
                lane.stopped_reason = "goal-already-satisfied"
                continue
            reason = self._run_lane(lane, max_steps, memo)
            if reason != "stop-condition":
                raise SimulationLimitError(
                    f"goal not reached within {max_steps} steps "
                    f"(algorithm={self._algorithm.name}, "
                    f"scheduler={lane.scheduler.name}); first failing lane {lane.index}"
                )
            lane.stopped_reason = "goal-reached"

    # ------------------------------------------------------------------ #
    # lane stepping
    # ------------------------------------------------------------------ #
    def _run_lane(self, lane: BatchLane, max_steps: int, memo: "_StopMemo") -> str:
        if lane.driver != _DRIVER_RR:
            return self._run_lane_general(lane, max_steps, memo)
        # Remembered round-boundary states were stop-checked under an
        # earlier run's predicate (or none), so every run starts afresh.
        lane.orbit.clear()
        return self._run_lane_rr(lane, max_steps, memo)

    def _plan_for_key(self, key: bytes, lane: BatchLane) -> Dict[int, object]:
        counts = self._tuples.get(key)
        if counts is None:
            counts = self._backend.counts(lane.index)
            self._tuples[key] = counts
        plan = self._plan_table.plan_for_counts(counts)
        self._plans[key] = plan
        return plan

    def _direction(
        self, key: bytes, counts: Tuple[int, ...], node: int, first_is_cw: bool
    ) -> int:
        """One exact Look through the shared Look table (:func:`look_direction`)."""
        table = self._look_table
        look_key = (key, node, first_is_cw)
        direction = None if table is None else table.get(look_key)
        if direction is None:
            direction = look_direction(
                self._algorithm,
                self._decisions,
                self.pool.configuration(counts),
                node,
                first_is_cw,
                self._multiplicity_detection,
            )
            if table is not None:
                table.put(look_key, direction)
        return direction

    def _orbit_skip(
        self,
        lane: BatchLane,
        key: bytes,
        counts_tuple: Tuple[int, ...],
        step: int,
        total_moves: int,
        ties: int,
        remaining: int,
    ) -> Optional[Tuple[int, int, bytes, Tuple[int, ...]]]:
        """Remember a round-boundary state, or skip whole periods of its orbit.

        Called when robot 0 is next in round-robin order: every CYCLE
        step leaves ``pending`` empty, so the rotation-normalised
        positions are the lane's complete state.  On a revisit with the
        same tie count, the period since the remembered visit repeats,
        rotated, for as long as the budget lasts, so ``full`` periods are
        applied at once and positions and row are rotated in place.  A
        revisit after a tie is remembered afresh instead.

        Returns ``None`` (simulate on), or ``(steps skipped, moves
        skipped, key, counts tuple)`` after the skip.
        """
        positions = lane.positions
        n = self._n
        base = positions[0]
        norm = tuple((p - base) % n for p in positions)
        prev = lane.orbit.get(norm)
        if prev is None or prev[3] != ties:
            lane.orbit[norm] = (step, total_moves, base, ties)
            return None
        prev_step, prev_moves, prev_base, _ = prev
        period = step - prev_step
        full = remaining // period if period > 0 else 0
        if full <= 0:
            return None
        rotation = ((base - prev_base) * full) % n
        if rotation:
            for i in range(len(positions)):
                positions[i] = (positions[i] + rotation) % n
            rotated = tuple(counts_tuple[(i - rotation) % n] for i in range(n))
            row = lane.row
            for i in range(n):
                row[i] = rotated[i]
            key = row.tobytes()
            counts_tuple = self._tuples.setdefault(key, rotated)
        return full * period, full * (total_moves - prev_moves), key, counts_tuple

    def _run_lane_rr(
        self, lane: BatchLane, max_steps: int, memo: "_StopMemo"
    ) -> str:
        """Hot loop: every lane under the round-robin sequential scheduler.

        A pure global-rule algorithm decides by the shared plan table (a
        handful of dict hits per step, no presentation draws); any other
        algorithm decides by the shared Look table after the per-run
        presentation draw.  Per-lane state lives in locals and is
        written back in ``finally`` so an aborting exception (collision,
        planner precondition) leaves the lane consistent with the steps
        it actually executed.  The stop predicate is evaluated only when
        the configuration changes (idle steps cannot change its value).
        Monitors see every step before a collision raises, with
        ``step_count`` current; the pooled configuration they receive is
        looked up only after a move.

        Unmonitored lanes that record no events remember their
        round-boundary states, so a lane that enters a periodic orbit
        (every perpetual task does) has its remaining full periods
        fast-forwarded arithmetically (:meth:`_orbit_skip`).  A
        Look-table lane that draws presentations also counts its *ties*
        — Looks whose two presentation orders give different directions
        — and skips only tie-free periods, which no draw can change; it
        still draws once per skipped step, so its RNG state stays equal
        to the per-run engine's.
        """
        positions = lane.positions
        k = len(positions)
        n = self._n
        row = lane.row
        key = lane.key
        counts_tuple = lane.counts_tuple
        rr = lane.rr
        step = lane.step_count
        total_moves = lane.total_moves
        mult = lane.mult_nodes
        events = lane.events
        monitors = lane.monitors
        view = lane.view
        record = self._record_events
        exclusive = self._exclusive
        collision_raise = self._collision_raise
        plans = self._plans if self._plan_table is not None else None
        direction_of = self._direction
        draw = lane.rng.random if plans is None and not self._chirality else None
        tuples = self._tuples
        pool_configuration = self.pool.configuration
        cycle = ActivationKind.CYCLE
        stop_active = memo.predicate is not None
        stop_satisfied = memo.satisfied
        # Fast-forwarding replays configurations that are *rotations* of
        # already-visited (stop-checked) ones, so it needs the predicate
        # to be absent or declared rotation-invariant.  A Look-table lane
        # needs the table to count ties cheaply, and counts them only
        # when it draws (under chirality no Look has a second order).
        fast_forward = (
            monitors is None
            and not record
            and (not stop_active or memo.declared_invariant)
            and (plans is not None or self._look_table is not None)
        )
        count_ties = fast_forward and draw is not None
        ties = 0
        plan = None
        configuration: Optional[Configuration] = None
        stop_current: Optional[bool] = None
        reason = "max-steps"
        steps_done = 0
        try:
            while steps_done < max_steps:
                robot = rr % k
                if robot == 0 and fast_forward:
                    skip = self._orbit_skip(
                        lane, key, counts_tuple, step, total_moves, ties,
                        max_steps - steps_done,
                    )
                    if skip is not None:
                        skipped, moved, key, counts_tuple = skip
                        step += skipped
                        rr += skipped
                        steps_done += skipped
                        total_moves += moved
                        if draw is not None:
                            for _ in range(skipped):
                                draw()
                        plan = None
                        continue
                rr += 1
                position = positions[robot]
                if plans is not None:
                    if plan is None:
                        plan = plans.get(key)
                        if plan is None:
                            lane.key = key
                            plan = self._plan_for_key(key, lane)
                            counts_tuple = tuples[key]
                    target = plan.get(position)
                    if target is INVALID_TARGET:
                        raise AlgorithmPreconditionError(
                            f"planner asked the robot at node {position} to move to "
                            "a non-adjacent node"
                        )
                else:
                    first_is_cw = True if draw is None else draw() < 0.5
                    direction = direction_of(key, counts_tuple, position, first_is_cw)
                    if count_ties and direction != direction_of(
                        key, counts_tuple, position, not first_is_cw
                    ):
                        ties += 1
                    target = (position + direction) % n if direction else None
                if target is None:
                    moves: tuple = ()
                else:
                    row[position] -= 1
                    row[target] += 1
                    positions[robot] = target
                    key = row.tobytes()
                    counts_tuple = tuples.get(key)
                    if counts_tuple is None:
                        lane.key = key
                        counts_tuple = self._backend.counts(lane.index)
                        tuples[key] = counts_tuple
                    total_moves += 1
                    if exclusive:
                        if row[target] == 2:
                            mult += 1
                        if row[position] == 1:
                            mult -= 1
                    moves = ((robot, position, target),)
                    plan = None
                    stop_current = None
                    configuration = None
                collision = exclusive and mult > 0
                if record:
                    events.append(
                        (step, cycle, (robot,), moves, counts_tuple, collision)
                    )
                step += 1
                steps_done += 1
                if monitors is not None:
                    lane.step_count = step
                    if configuration is None:
                        lane.key = key
                        lane.counts_tuple = counts_tuple
                        configuration = pool_configuration(counts_tuple)
                    records = (MoveRecord(*moves[0]),) if moves else ()
                    for monitor in monitors:
                        monitor.on_step(view, records, configuration)
                if collision and collision_raise:
                    raise CollisionError(
                        f"exclusivity violated at step {step - 1}: configuration "
                        f"{pool_configuration(counts_tuple).ascii_art()!r}"
                    )
                if stop_active:
                    if stop_current is None:
                        stop_current = stop_satisfied(key, counts_tuple)
                    if stop_current:
                        reason = "stop-condition"
                        break
        finally:
            lane.rr = rr
            lane.step_count = step
            lane.total_moves = total_moves
            lane.mult_nodes = mult
            lane.key = key
            lane.counts_tuple = counts_tuple
        return reason

    # ------------------------------------------------------------------ #
    # general path (synchronous and scheduler-driven lanes)
    # ------------------------------------------------------------------ #
    def _run_lane_general(
        self, lane: BatchLane, max_steps: int, memo: "_StopMemo"
    ) -> str:
        check = memo.predicate is not None
        for _ in range(max_steps):
            self._step_lane(lane)
            if check and memo.satisfied(lane.key, lane.counts_tuple):
                return "stop-condition"
        return "max-steps"

    def _step_lane(self, lane: BatchLane) -> None:
        """One scheduler step of one lane (exact Simulator semantics)."""
        if lane.driver == _DRIVER_SYNC:
            kind = ActivationKind.CYCLE
            robots: Tuple[int, ...] = lane.all_robots
        else:
            activation: Activation = lane.scheduler.next_activation(lane.view)
            kind = activation.kind
            robots = activation.robots
            num_robots = len(lane.positions)
            for robot_id in robots:
                if not 0 <= robot_id < num_robots:
                    raise SchedulerError(
                        f"activation references unknown robot {robot_id}"
                    )

        if kind is ActivationKind.CYCLE:
            for robot_id in robots:
                self._look(lane, robot_id)
            moves = self._execute_pending(lane, robots)
        elif kind is ActivationKind.LOOK:
            for robot_id in robots:
                self._look(lane, robot_id)
            moves = ()
        elif kind is ActivationKind.MOVE:
            moves = self._execute_pending(lane, robots)
        else:  # pragma: no cover - exhaustive enum
            raise SchedulerError(f"unknown activation kind {kind!r}")

        collision = self._exclusive and lane.mult_nodes > 0
        step = lane.step_count
        if self._record_events:
            lane.events.append(
                (step, kind, robots, moves, lane.counts_tuple, collision)
            )
        lane.step_count = step + 1
        if lane.monitors is not None:
            configuration = self.pool.configuration(lane.counts_tuple)
            move_records = [MoveRecord(*move) for move in moves]
            for monitor in lane.monitors:
                monitor.on_step(lane.view, move_records, configuration)
        if collision and self._collision_raise:
            raise CollisionError(
                f"exclusivity violated at step {step}: configuration "
                f"{self.pool.configuration(lane.counts_tuple).ascii_art()!r}"
            )

    def _look(self, lane: BatchLane, robot_id: int) -> None:
        """Look + Compute for one robot (fast plan path or exact slow path)."""
        if self._plan_table is not None:
            plan = self._plans.get(lane.key)
            if plan is None:
                plan = self._plan_for_key(lane.key, lane)
            position = lane.positions[robot_id]
            target = plan.get(position)
            if target is None:
                lane.pending.pop(robot_id, None)
            elif target is INVALID_TARGET:
                raise AlgorithmPreconditionError(
                    f"planner asked the robot at node {position} to move to "
                    "a non-adjacent node"
                )
            else:
                lane.pending[robot_id] = target
            return
        # Exact per-snapshot path: the same presentation draw, Look table
        # and decision-cache semantics as Simulator.
        position = lane.positions[robot_id]
        first_is_cw = True if self._chirality else lane.rng.random() < 0.5
        direction = self._direction(lane.key, lane.counts_tuple, position, first_is_cw)
        if direction:
            lane.pending[robot_id] = (position + direction) % self._n
        else:
            lane.pending.pop(robot_id, None)

    def _execute_pending(
        self, lane: BatchLane, robot_ids: Sequence[int]
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Execute pending moves of ``robot_ids`` simultaneously.

        Sources are captured for every mover before any relocation is
        applied, matching the incremental engine's two-phase execution.
        """
        pending = lane.pending
        positions = lane.positions
        moves = []
        for robot_id in robot_ids:
            target = pending.get(robot_id)
            if target is not None:
                moves.append((robot_id, positions[robot_id], target))
        if not moves:
            return ()
        row = lane.row
        mult = lane.mult_nodes
        for robot_id, source, target in moves:
            row[source] -= 1
            row[target] += 1
            positions[robot_id] = target
            del pending[robot_id]
            if row[target] == 2:
                mult += 1
            if row[source] == 1:
                mult -= 1
        lane.mult_nodes = mult
        lane.total_moves += len(moves)
        key = row.tobytes()
        lane.key = key
        counts = self._tuples.get(key)
        if counts is None:
            counts = self._backend.counts(lane.index)
            self._tuples[key] = counts
        lane.counts_tuple = counts
        return tuple(moves)


class _StopMemo:
    """Per-run memo of a stop predicate over distinct occupancy rows.

    Keyed on the raw row bytes; when the predicate is declared invariant
    under ring automorphisms (and a plan table exists to canonicalise
    cheaply), results are additionally shared across each row's whole
    rotation/reflection orbit.
    """

    __slots__ = ("predicate", "declared_invariant", "_engine", "_table", "_raw", "_canonical")

    def __init__(
        self,
        engine: BatchEngine,
        predicate: Optional[ConfigurationPredicate],
        invariant: bool,
    ) -> None:
        self.predicate = predicate
        self.declared_invariant = invariant
        self._engine = engine
        self._table = engine._plan_table if invariant else None
        self._raw: Dict[bytes, bool] = {}
        self._canonical: Dict[Tuple[int, ...], bool] = {}

    def satisfied(self, key: bytes, counts: Tuple[int, ...]) -> bool:
        """Whether the predicate holds on ``counts`` (memoised)."""
        value = self._raw.get(key)
        if value is None:
            if self._table is not None:
                canonical = self._table.canonical_counts(counts)
                value = self._canonical.get(canonical)
                if value is None:
                    value = bool(
                        self.predicate(self._engine.pool.configuration(counts))
                    )
                    self._canonical[canonical] = value
            else:
                value = bool(
                    self.predicate(self._engine.pool.configuration(counts))
                )
            self._raw[key] = value
        return value
