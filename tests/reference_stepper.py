"""A naive Look-Compute-Move stepper: the oracle the engine is tested against.

:class:`ReferenceStepper` runs one algorithm on one ring the slow,
obvious way.  It keeps a plain list of robot positions, builds a fresh
:class:`~repro.core.configuration.Configuration` from that list for
every step, and asks the algorithm for every Look through a fresh
:class:`~repro.model.snapshot.Snapshot`.  It has no Look table, no
decision cache, no configuration pool, no class-plan table and no orbit
skip: nothing that makes :class:`~repro.batchsim.BatchEngine` (and its
one-lane facade :class:`~repro.simulator.engine.Simulator`) fast.

It shares only the model with the package: ``Configuration``,
``Snapshot``, the schedulers, the algorithms, the trace records it
fills and the error types it raises.  ``tests/test_reference_stepper.py``
checks by AST that it imports nothing from the engine's modules.

Its surface is the part of the ``Simulator`` API that schedulers,
monitors and the differential tests read: ``run``, ``run_until``,
``run_until_stable``, ``step``, ``configuration``, ``robot(i)``,
``robots_at``, ``pending_robots``, ``positions``, ``step_count``,
``trace``, plus ``rng``, the presentation RNG, whose state the
differential suite compares with each lane's.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.configuration import Configuration
from repro.core.errors import (
    CollisionError,
    ExclusivityViolationError,
    InvalidConfigurationError,
    SchedulerError,
    SimulationLimitError,
)
from repro.model.snapshot import Snapshot
from repro.scheduler.base import ActivationKind, Scheduler
from repro.scheduler.sequential import SequentialScheduler
from repro.simulator.options import EngineOptions
from repro.simulator.trace import MoveRecord, Trace, TraceEvent

__all__ = ["ReferenceStepper"]

#: Global directions: clockwise increases the node index.
CLOCKWISE, COUNTER_CLOCKWISE = 1, -1


class _Robot:
    """One robot's read-only state, as schedulers see it."""

    def __init__(self, stepper: "ReferenceStepper", robot_id: int) -> None:
        self._stepper = stepper
        self.robot_id = robot_id

    @property
    def position(self) -> int:
        return self._stepper._positions[self.robot_id]

    @property
    def pending_target(self) -> Optional[int]:
        return self._stepper._pending.get(self.robot_id)

    @property
    def has_pending_move(self) -> bool:
        return self.robot_id in self._stepper._pending


class ReferenceStepper:
    """Run an algorithm step by step, rebuilding every derived state.

    Takes the same arguments as :class:`~repro.simulator.engine.Simulator`.
    Of ``options`` it reads only the model and the presentation seed
    (``exclusive``, ``multiplicity_detection``, ``presentation_seed``,
    ``collision_policy``, ``chirality``); the cache and pool bounds tune
    an engine this stepper does not have.
    """

    def __init__(
        self,
        algorithm,
        initial: Union[Configuration, Sequence[int]],
        *,
        ring_size: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        options: Optional[EngineOptions] = None,
        monitors: Iterable = (),
    ) -> None:
        options = options if options is not None else EngineOptions()
        if isinstance(initial, Configuration):
            start = initial
            positions: List[int] = []
            for node in range(start.n):
                positions.extend([node] * start.multiplicity(node))
        else:
            if ring_size is None:
                raise InvalidConfigurationError(
                    "ring_size is required when initial positions are given as a sequence"
                )
            positions = [int(p) for p in initial]
            start = Configuration.from_positions(ring_size, positions)
        if options.exclusive and not start.is_exclusive:
            raise ExclusivityViolationError(
                "initial configuration violates the exclusivity property"
            )
        self.algorithm = algorithm
        self.scheduler = scheduler if scheduler is not None else SequentialScheduler()
        self.ring_size = start.n
        self.options = options
        self.rng = random.Random(options.presentation_seed)
        self._positions = positions
        self._pending: Dict[int, int] = {}
        self._robots = [_Robot(self, r) for r in range(len(positions))]
        self.trace = Trace(initial_configuration=start, initial_positions=tuple(positions))
        self._monitors = list(monitors)
        self.scheduler.reset()
        for monitor in self._monitors:
            monitor.on_start(self)

    # ------------------------------------------------------------------ #
    # read surface
    # ------------------------------------------------------------------ #
    @property
    def num_robots(self) -> int:
        return len(self._positions)

    @property
    def step_count(self) -> int:
        return len(self.trace.events)

    @property
    def positions(self) -> Tuple[int, ...]:
        return tuple(self._positions)

    @property
    def configuration(self) -> Configuration:
        """A configuration built afresh from the position list."""
        return Configuration.from_positions(self.ring_size, self._positions)

    def robot(self, robot_id: int) -> _Robot:
        return self._robots[robot_id]

    def robots_at(self, node: int) -> Tuple[int, ...]:
        return tuple(r for r, p in enumerate(self._positions) if p == node)

    def pending_robots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._pending))

    # ------------------------------------------------------------------ #
    # one step
    # ------------------------------------------------------------------ #
    def _look(self, robot_id: int, configuration: Configuration) -> None:
        """Look + Compute: draw the presentation, ask the algorithm, store the target."""
        node = self._positions[robot_id]
        clockwise_first = True if self.options.chirality else self.rng.random() < 0.5
        clockwise_view, counter_view = configuration.views_of(node)
        views = (
            (clockwise_view, counter_view) if clockwise_first else (counter_view, clockwise_view)
        )
        snapshot = Snapshot(
            n=self.ring_size,
            views=views,
            on_multiplicity=(
                self.options.multiplicity_detection and configuration.multiplicity(node) > 1
            ),
        )
        decision = self.algorithm.compute(snapshot)
        if decision.is_idle:
            self._pending.pop(robot_id, None)
            return
        first = CLOCKWISE if clockwise_first else COUNTER_CLOCKWISE
        direction = first if decision.toward_view == 0 else -first
        self._pending[robot_id] = (node + direction) % self.ring_size

    def _move(self, robot_ids: Sequence[int]) -> List[MoveRecord]:
        """Execute the pending moves of ``robot_ids`` simultaneously."""
        moves = [
            MoveRecord(robot_id=r, source=self._positions[r], target=self._pending[r])
            for r in robot_ids
            if r in self._pending
        ]
        for move in moves:
            self._positions[move.robot_id] = move.target
            del self._pending[move.robot_id]
        return moves

    def step(self) -> TraceEvent:
        """Ask the scheduler for an activation, execute it and record it."""
        activation = self.scheduler.next_activation(self)
        for robot_id in activation.robots:
            if not 0 <= robot_id < self.num_robots:
                raise SchedulerError(f"activation references unknown robot {robot_id}")
        kind = activation.kind
        if kind is not ActivationKind.MOVE:
            before = self.configuration
            for robot_id in activation.robots:
                self._look(robot_id, before)
        moves = self._move(activation.robots) if kind is not ActivationKind.LOOK else []
        after = self.configuration
        collision = self.options.exclusive and not after.is_exclusive
        event = TraceEvent(
            step=self.step_count,
            kind=kind,
            robots=activation.robots,
            moves=tuple(moves),
            configuration_after=after,
            collision=collision,
        )
        self.trace.append(event)
        for monitor in self._monitors:
            monitor.on_step(self, moves, after)
        if collision and self.options.collision_policy == "raise":
            raise CollisionError(
                f"exclusivity violated at step {event.step}: "
                f"configuration {after.ascii_art()!r}"
            )
        return event

    # ------------------------------------------------------------------ #
    # runs
    # ------------------------------------------------------------------ #
    def run(
        self, max_steps: int, stop: Optional[Callable[["ReferenceStepper"], bool]] = None
    ) -> Trace:
        for _ in range(max_steps):
            self.step()
            if stop is not None and stop(self):
                self.trace.stopped_reason = "stop-condition"
                return self.trace
        self.trace.stopped_reason = "max-steps"
        return self.trace

    def run_until(self, goal: Callable[["ReferenceStepper"], bool], max_steps: int) -> Trace:
        if goal(self):
            self.trace.stopped_reason = "goal-already-satisfied"
            return self.trace
        if self.run(max_steps, stop=goal).stopped_reason != "stop-condition":
            raise SimulationLimitError(
                f"goal not reached within {max_steps} steps "
                f"(algorithm={self.algorithm.name}, scheduler={self.scheduler.name})"
            )
        self.trace.stopped_reason = "goal-reached"
        return self.trace

    def run_until_stable(self, max_steps: int, quiet_window: Optional[int] = None) -> Trace:
        window = quiet_window if quiet_window is not None else 2 * self.num_robots
        quiet = 0
        for _ in range(max_steps):
            event = self.step()
            quiet = 0 if event.moves or self._pending else quiet + 1
            if quiet >= window:
                self.trace.stopped_reason = "stable"
                return self.trace
        self.trace.stopped_reason = "max-steps"
        return self.trace
