"""The Look-Compute-Move engine: the repository's one simulation engine.

One :class:`BatchEngine` advances a batch of independent simulations
("lanes") of the *same* algorithm on the *same* ring size under the
*same* scheduler policy; a single run is a one-lane batch, which is
what :class:`~repro.simulator.engine.Simulator` wraps.  The batch state
is one ``array('i')`` occupancy row per lane (its ``tobytes()`` is the
lane's dict key); everything expensive is shared across lanes:

* wherever the algorithm has a global plan for a support, the
  process-wide :class:`~repro.simulator.classplan.ClassPlanTable` of
  the algorithm and ring size (shared with every other engine and with
  the model checker) turns every Look into a dictionary hit keyed on the
  lane's counts row — no snapshots, no per-view decision keys;
* everywhere else a Look is exact
  (:func:`~repro.simulator.classplan.look_direction`), memoised by a
  :class:`LookTable` and a :class:`~repro.model.algorithm.DecisionCache`,
  which with the configuration pool are shared across the whole batch;
* every round-robin lane, monitored or not, runs in one hot loop, and
  a lane with no event log whose monitors all support it fast-forwards
  whole periods of a periodic orbit in which no per-snapshot Look
  depended on the presentation order;
* stop conditions are predicates over the configuration and are
  memoised per distinct occupancy row, so a convergence check costs one
  dictionary hit per step instead of a property chain.

Byte-identity contract: for every lane ``i``,
``lane_trace(i).canonical_bytes()`` equals the canonical bytes of the
trace of the same run stepped naively, one fresh configuration and
snapshot per Look, by the reference stepper
``tests/reference_stepper.py``, which shares no engine code — the
differential suite in ``tests/batchsim/`` and the golden-trace tests
enforce this under every scheduler.  Every lane draws its presentation
RNG exactly as the reference does: once per Look, on plan steps and
fast-forwarded steps too, and never under ``chirality``.  So a lane's
``rng`` state always equals the reference's.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.configuration import Configuration
from ..core.cyclic import packed_codec
from ..core.errors import (
    CollisionError,
    ExclusivityViolationError,
    SchedulerError,
    SimulationLimitError,
)
from ..model.algorithm import Algorithm, DecisionCache
from ..scheduler.base import Activation, ActivationKind, Scheduler
from ..scheduler.sequential import SequentialScheduler
from ..scheduler.synchronous import SynchronousScheduler
from ..simulator.classplan import ConfigurationPool, look_direction, plan_table
from ..simulator.options import (
    DEFAULT_CONFIG_POOL_SIZE,
    DEFAULT_DECISION_CACHE_SIZE,
    EngineOptions,
)
from ..simulator.trace import MoveRecord, Trace, TraceEvent

__all__ = ["BatchEngine", "BatchLane", "BatchLaneView"]

#: Stop/goal predicate over a :class:`Configuration` (memoised per row).
ConfigurationPredicate = Callable[[Configuration], bool]

#: Scheduler driver kinds (selected per lane from the scheduler instance).
_DRIVER_RR = "rr"
_DRIVER_SYNC = "sync"
_DRIVER_GENERIC = "generic"

#: Largest configuration pool: a batch gets 32 entries per lane, and at
#: least :data:`~repro.simulator.options.DEFAULT_CONFIG_POOL_SIZE`.
_MAX_POOL_SIZE = 1 << 16


class LookTable(dict):
    """Memo of whole Looks: ``(occupancy, node, first_is_cw) -> direction``.

    The direction is a :func:`~repro.simulator.classplan.look_direction`
    result.  The occupancy and the node fix the robot's snapshot up to
    the presentation order, so the table rests on the same purity
    contract as :class:`~repro.model.algorithm.DecisionCache`.  It is
    cleared when it reaches ``maxsize`` entries.
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
    written against the simulator's public read surface
    (``num_robots``, ``robot(r)``, ``step_count``, ``configuration``,
    ``ring_size``, ``positions``, ``pending_robots``) work unchanged
    against a lane of the batched engine.
    """

    __slots__ = ("_pool", "_n", "_lane", "_robots")

    def __init__(self, engine: "BatchEngine", lane: "BatchLane") -> None:
        # A view holds no engine and no lane holds its view, so no cycle
        # keeps a finished engine alive until the cyclic collector runs.
        self._pool = engine.pool
        self._n = engine.ring_size
        self._lane = lane
        self._robots = [_RobotView(lane, r) for r in range(len(lane.positions))]

    @property
    def ring_size(self) -> int:
        """Number of nodes of the ring."""
        return self._n

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
        return self._pool.configuration(self._lane.counts_tuple)

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
        #: round-boundary state memory for periodic-orbit fast-forward:
        #: normalised positions (plus the monitors' keys on a monitored
        #: lane) -> (step, total_moves, base node, ties).
        self.orbit: Dict[Tuple[int, ...], Tuple[int, int, int, int]] = {}


class BatchEngine:
    """Advance many simulations of one algorithm in lock-stepped lanes.

    Args:
        algorithm: the algorithm every lane runs (one shared instance —
            algorithms are stateless pure functions by contract).
        initials: one starting :class:`Configuration` per lane; all must
            share the same ring size.  Robot identities are assigned per
            lane to occupied nodes in increasing order, multiplicities
            expanded.
        scheduler_factory: ``lane_index -> Scheduler`` building each
            lane's scheduler; defaults to a fresh round-robin
            :class:`~repro.scheduler.sequential.SequentialScheduler` per
            lane (the simulator's default).  Round-robin
            sequential and fully synchronous schedulers are driven by
            inlined fast drivers; every other scheduler instance is
            consulted per step through a :class:`BatchLaneView`.
        options: shared :class:`EngineOptions` bundle (defaults to
            ``EngineOptions()``).
        monitors_factory: optional ``lane_index -> iterable of monitors``.
            A monitor sees every step of its lane, unless every monitor
            of the lane supports orbit skips (``orbit_key`` and
            ``orbit_skip``, see :class:`~repro.tasks.base.Monitor`):
            then whole periods of a periodic orbit are replayed into the
            monitors instead of stepped.
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

        self.pool = ConfigurationPool(
            min(_MAX_POOL_SIZE, max(DEFAULT_CONFIG_POOL_SIZE, 32 * len(initials)))
        )
        self._decisions = DecisionCache(DEFAULT_DECISION_CACHE_SIZE)
        #: slow-path Look table keyed on the lane's row bytes, shared by all lanes.
        self._look_table = LookTable(DEFAULT_DECISION_CACHE_SIZE)
        self._plan_table = plan_table(algorithm, self._n, self._multiplicity_detection)
        #: counts-row bytes -> the table's plan in that frame, or False.
        self._plans: Dict[bytes, object] = {}
        #: counts-row bytes -> plain counts tuple (shared across lanes).
        self._tuples: Dict[bytes, Tuple[int, ...]] = {}

        #: one mutable ``array('i')`` counts row per lane.
        self._rows: List[array] = [array("i", c.counts) for c in initials]
        self._lanes: List[BatchLane] = []
        self._views: List[BatchLaneView] = []
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
            lane.row = self._rows[index]
            counts = configuration.counts
            lane.counts_tuple = counts
            lane.key = lane.row.tobytes()
            self._tuples.setdefault(lane.key, counts)
            self.pool.put(counts, configuration)
            lane.mult_nodes = sum(1 for c in counts if c >= 2)
            lane.initial_configuration = configuration
            lane.initial_positions = tuple(positions)
            view = BatchLaneView(self, lane)
            if monitors_factory is not None:
                monitors = list(monitors_factory(index))
                lane.monitors = monitors or None
                for monitor in monitors:
                    monitor.on_start(view)
            self._lanes.append(lane)
            self._views.append(view)

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
    def decision_cache(self) -> DecisionCache:
        """The shared decision cache."""
        return self._decisions

    @property
    def num_lanes(self) -> int:
        """Number of lanes in the batch."""
        return len(self._lanes)

    def lane(self, index: int) -> BatchLane:
        """The per-lane state record (treat as read-only)."""
        return self._lanes[index]

    def lane_view(self, index: int) -> BatchLaneView:
        """A Simulator-shaped read view of one lane."""
        return self._views[index]

    def packed_states(self) -> List[int]:
        """Every lane's occupancy vector packed through the shared codec.

        Uses :meth:`PackedSequenceCodec.pack_many` over the lane rows.
        """
        max_count = max(max(lane.counts_tuple) for lane in self._lanes)
        codec = packed_codec(self._n, max(1, max_count))
        return codec.pack_many(self._rows)

    def lane_trace(self, index: int) -> Trace:
        """Materialise lane ``index``'s full :class:`Trace`.

        The result is byte-identical (``canonical_bytes``) to the trace
        the reference stepper records for the same run.
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
        trace.events.extend(self._trace_events(lane.events))
        trace.stopped_reason = lane.stopped_reason
        return trace

    def take_lane_events(self, index: int) -> List[TraceEvent]:
        """Lane ``index``'s steps recorded since the last call, as trace events.

        The lane forgets them: a caller keeping its own :class:`Trace`
        (:class:`~repro.simulator.engine.Simulator`) holds each step once.
        """
        records = self._lanes[index].events
        # Popped from the end as they are converted: no step is held twice.
        events = self._trace_events(records.pop() for _ in range(len(records)))
        events.reverse()
        return events

    def _trace_events(self, records: Iterable[tuple]) -> List[TraceEvent]:
        configuration_of = self.pool.configuration
        return [
            TraceEvent(
                step=step,
                kind=kind,
                robots=robots,
                moves=tuple(MoveRecord(*move) for move in moves),
                configuration_after=configuration_of(counts),
                collision=collision,
            )
            for step, kind, robots, moves, counts, collision in records
        ]

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
        the semantics of :meth:`Simulator.run`.

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

    def step_lane(self, index: int) -> None:
        """Advance lane ``index`` by exactly one scheduler step."""
        self._run_lane(self._lanes[index], 1, _StopMemo(self, None, False))

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

    def _plan_for_key(self, key: bytes, counts: Tuple[int, ...]):
        """The class plan in one row's frame, or ``False`` (memoised per row).

        A remembered plan stays valid if the table later turns itself
        off: it was self-checked, or the table had already stopped
        checking, and no later check can fail.
        """
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plan_table.plan(counts)
            if plan is None:
                plan = False
            self._plans[key] = plan
        return plan

    def _direction(
        self, key: bytes, counts: Tuple[int, ...], node: int, first_is_cw: bool
    ) -> int:
        """One exact Look through the shared Look table (:func:`look_direction`)."""
        table = self._look_table
        look_key = (key, node, first_is_cw)
        direction = table.get(look_key)
        if direction is None:
            direction = look_direction(
                self._algorithm,
                self._decisions,
                self.pool.configuration(counts),
                node,
                first_is_cw,
                self._multiplicity_detection,
            )
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
        positions, plus each monitor's ``orbit_key`` in robot 0's frame,
        are the lane's complete state.  On a revisit with the same tie
        count, the period since the remembered visit repeats, rotated,
        for as long as the budget lasts, so ``full`` periods are applied
        at once: positions and row are rotated in place, and each
        monitor replays the period's records through ``orbit_skip``.  A
        revisit after a tie is remembered afresh instead.

        Returns ``None`` (simulate on), or ``(steps skipped, moves
        skipped, key, counts tuple)`` after the skip.
        """
        positions = lane.positions
        monitors = lane.monitors
        n = self._n
        base = positions[0]
        state = tuple((p - base) % n for p in positions)
        if monitors is not None:
            state = (state, tuple(monitor.orbit_key(base) for monitor in monitors))
        prev = lane.orbit.get(state)
        if prev is None or prev[3] != ties:
            lane.orbit[state] = (step, total_moves, base, ties)
            return None
        prev_step, prev_moves, prev_base, _ = prev
        period = step - prev_step
        full = remaining // period if period > 0 else 0
        if full <= 0:
            return None
        shift = (base - prev_base) % n
        rotation = (shift * full) % n
        if rotation:
            for i in range(len(positions)):
                positions[i] = (positions[i] + rotation) % n
            rotated = tuple(counts_tuple[(i - rotation) % n] for i in range(n))
            row = lane.row
            for i in range(n):
                row[i] = rotated[i]
            key = row.tobytes()
            counts_tuple = self._tuples.setdefault(key, rotated)
        moves = total_moves - prev_moves
        if monitors is not None:
            # The monitors read the lane through its view: bring it to
            # the end of the skip first.
            lane.step_count = step + full * period
            lane.key = key
            lane.counts_tuple = counts_tuple
            view = self._views[lane.index]
            for monitor in monitors:
                monitor.orbit_skip(view, prev_step, period, full, shift, moves)
        return full * period, full * moves, key, counts_tuple

    def _run_lane_rr(
        self, lane: BatchLane, max_steps: int, memo: "_StopMemo"
    ) -> str:
        """Hot loop: every lane under the round-robin sequential scheduler.

        Each step draws the presentation as the reference stepper does, then
        decides by the row's class plan where the plan table has one (a
        handful of dict hits per step), else by the shared Look table.
        Per-lane state lives in locals and is written back in
        ``finally`` so an aborting exception (collision, planner
        precondition) leaves the lane consistent with the steps it
        actually executed.  The stop predicate is evaluated only when
        the configuration changes (idle steps cannot change its value).
        Monitors see every step before a collision raises, with
        ``step_count`` current; the pooled configuration they receive is
        looked up only after a move.

        Lanes that record no events, and whose monitors all support
        orbit skips, remember their round-boundary states, so a lane
        that enters a periodic orbit (every perpetual task does) has its
        remaining full periods fast-forwarded arithmetically
        (:meth:`_orbit_skip`).  A lane that draws presentations also
        counts its *ties* — Look-table Looks whose two presentation
        orders give different directions; plan steps never tie — and
        skips only tie-free periods, which no draw can change; it still
        draws once per skipped step, so its RNG state stays equal to the
        reference stepper's.
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
        view = self._views[lane.index]
        record = self._record_events
        exclusive = self._exclusive
        collision_raise = self._collision_raise
        plans = self._plans if self._plan_table.enabled else None
        plan_for_key = self._plan_for_key
        direction_of = self._direction
        draw = None if self._chirality else lane.rng.random
        tuples = self._tuples
        pool_configuration = self.pool.configuration
        cycle = ActivationKind.CYCLE
        stop_active = memo.predicate is not None
        stop_satisfied = memo.satisfied
        # Fast-forwarding replays configurations that are *rotations* of
        # already-visited (stop-checked) ones, so it needs the predicate
        # to be absent or declared rotation-invariant.  A lane counts
        # ties only when it draws (under chirality no Look has a second
        # order).
        fast_forward = (
            not record
            and (not stop_active or memo.declared_invariant)
            and (monitors is None or all(hasattr(m, "orbit_skip") for m in monitors))
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
                        configuration = None
                        continue
                rr += 1
                position = positions[robot]
                first_is_cw = True if draw is None else draw() < 0.5
                if plan is None:
                    if plans is None:
                        plan = False
                    else:
                        plan = plans.get(key)
                        if plan is None:
                            plan = plan_for_key(key, counts_tuple)
                if plan is not False:
                    target = plan.get(position)
                else:
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
                        counts_tuple = tuple(row)
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
        """One scheduler step of one lane, asking its scheduler."""
        if lane.driver == _DRIVER_SYNC:
            kind = ActivationKind.CYCLE
            robots: Tuple[int, ...] = lane.all_robots
        else:
            activation: Activation = lane.scheduler.next_activation(
                self._views[lane.index]
            )
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
                monitor.on_step(self._views[lane.index], move_records, configuration)
        if collision and self._collision_raise:
            raise CollisionError(
                f"exclusivity violated at step {step}: configuration "
                f"{self.pool.configuration(lane.counts_tuple).ascii_art()!r}"
            )

    def _look(self, lane: BatchLane, robot_id: int) -> None:
        """Look + Compute for one robot: one draw, then plan or Look table."""
        position = lane.positions[robot_id]
        first_is_cw = True if self._chirality else lane.rng.random() < 0.5
        plan = self._plan_for_key(lane.key, lane.counts_tuple)
        if plan is not False:
            target = plan.get(position)
        else:
            direction = self._direction(lane.key, lane.counts_tuple, position, first_is_cw)
            target = (position + direction) % self._n if direction else None
        if target is None:
            lane.pending.pop(robot_id, None)
        else:
            lane.pending[robot_id] = target

    def _execute_pending(
        self, lane: BatchLane, robot_ids: Sequence[int]
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Execute pending moves of ``robot_ids`` simultaneously.

        Sources are captured for every mover before any relocation is
        applied: the two-phase execution of simultaneous moves.
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
            counts = tuple(row)
            self._tuples[key] = counts
        lane.counts_tuple = counts
        return tuple(moves)


class _StopMemo:
    """Per-run memo of a stop predicate over distinct occupancy rows.

    Keyed on the raw row bytes; when the predicate is declared invariant
    under ring automorphisms, results are additionally shared across each
    row's whole rotation/reflection orbit.
    """

    __slots__ = ("predicate", "declared_invariant", "_engine", "_codec", "_raw", "_canonical")

    def __init__(
        self,
        engine: BatchEngine,
        predicate: Optional[ConfigurationPredicate],
        invariant: bool,
    ) -> None:
        self.predicate = predicate
        self.declared_invariant = invariant
        self._engine = engine
        self._codec = (
            packed_codec(engine.ring_size, max(len(lane.positions) for lane in engine._lanes))
            if invariant
            else None
        )
        self._raw: Dict[bytes, bool] = {}
        self._canonical: Dict[int, bool] = {}

    def satisfied(self, key: bytes, counts: Tuple[int, ...]) -> bool:
        """Whether the predicate holds on ``counts`` (memoised)."""
        value = self._raw.get(key)
        if value is None:
            if self._codec is not None:
                canonical = self._codec.canonical(self._codec.pack(counts))
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
