"""The per-run simulation API.

:class:`Simulator` executes one min-CORDA algorithm on one ring against
one scheduler, notifying monitors and recording a
:class:`~repro.simulator.trace.Trace`.  It is a thin facade over a
one-lane :class:`~repro.batchsim.BatchEngine`, the repository's one
simulation engine, which steps the run; the facade adds single steps,
stop predicates over the simulator, and a trace that grows as it runs.
The algorithm only ever receives anonymous
:class:`~repro.model.snapshot.Snapshot` objects, with the presentation
order of the two directed views chosen adversarially (seeded), so that an
algorithm relying on chirality or node labels cannot silently pass the
test-suite.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from ..batchsim.engine import BatchEngine, BatchLaneView
from ..core.configuration import Configuration
from ..core.errors import InvalidConfigurationError, SimulationLimitError
from ..model.algorithm import Algorithm, DecisionCache
from ..scheduler.base import Scheduler
from ..scheduler.sequential import SequentialScheduler
from .options import EngineOptions
from .trace import Trace, TraceEvent

__all__ = ["Simulator"]

#: Predicate over the engine used as a stop condition.
StopCondition = Callable[["Simulator"], bool]


class Simulator(BatchLaneView):
    """Run a min-CORDA algorithm on a ring.

    Args:
        algorithm: the per-robot algorithm.
        initial: initial placement, either a
            :class:`~repro.core.configuration.Configuration` (robot
            identities are assigned to occupied nodes in increasing node
            order, with multiplicities expanded) or a sequence of robot
            positions (robot ``i`` starts on ``initial[i]``).
        ring_size: required when ``initial`` is a position sequence.
        scheduler: activation policy; defaults to a round-robin
            sequential scheduler.
        options: the robot model (exclusivity, multiplicity
            detection, presentation seed, collision policy, chirality)
            as one :class:`~repro.simulator.options.EngineOptions`
            bundle; defaults to ``EngineOptions()``.  A violated
            exclusivity raises :class:`CollisionError` unless the
            collision policy is ``"record"``.
        monitors: task monitors to notify after every step.

    The simulator reads its lane like the lane's
    :class:`~repro.batchsim.engine.BatchLaneView`, which is what
    schedulers and monitors receive; stop predicates receive the
    simulator.  Robot positions are engine-owned; mutate them only
    through activations.
    """

    __slots__ = ("_engine", "_scheduler", "_trace")

    def __init__(
        self,
        algorithm: Algorithm,
        initial: Union[Configuration, Sequence[int]],
        *,
        ring_size: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        options: Optional[EngineOptions] = None,
        monitors: Iterable = (),
    ) -> None:
        positions = None
        if isinstance(initial, Configuration):
            configuration = initial
        else:
            if ring_size is None:
                raise InvalidConfigurationError(
                    "ring_size is required when initial positions are given as a sequence"
                )
            positions = [int(p) for p in initial]
            configuration = Configuration.from_positions(ring_size, positions)
        scheduler = scheduler if scheduler is not None else SequentialScheduler()
        self._scheduler = scheduler
        self._engine = BatchEngine(
            algorithm,
            [configuration],
            scheduler_factory=lambda index: scheduler,
            options=options,
        )
        lane = self._engine.lane(0)
        if positions is not None:
            lane.positions[:] = positions
            lane.initial_positions = tuple(positions)
        super().__init__(self._engine, lane)
        self._trace = Trace(
            initial_configuration=configuration,
            initial_positions=lane.initial_positions,
        )
        lane.monitors = list(monitors) or None
        for monitor in lane.monitors or ():
            monitor.on_start(self._engine.lane_view(0))

    # ------------------------------------------------------------------ #
    # public state
    # ------------------------------------------------------------------ #
    @property
    def options(self) -> EngineOptions:
        """The resolved engine option bundle this engine runs under."""
        return self._engine.options

    @property
    def exclusive(self) -> bool:
        """Whether the exclusivity property is being enforced."""
        return self.options.exclusive

    @property
    def decision_cache(self) -> DecisionCache:
        """The engine's decision cache."""
        return self._engine.decision_cache

    @property
    def trace(self) -> Trace:
        """The trace recorded so far."""
        events = self._engine.take_lane_events(0)
        if events:
            self._trace.events.extend(events)
        return self._trace

    @property
    def state_version(self) -> int:
        """Monotonic counter bumped by every executed move (``0`` at the start)."""
        return self._lane.total_moves

    def robots(self) -> Tuple:
        """Every robot's read-only state, indexed by robot identifier."""
        return tuple(self._robots)

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    def step(self) -> TraceEvent:
        """Ask the scheduler for the next activation and execute it."""
        self._engine.step_lane(0)
        return self.trace.events[-1]

    def run(self, max_steps: int, stop: Optional[StopCondition] = None) -> Trace:
        """Run for at most ``max_steps`` steps (optionally stopping early).

        Args:
            max_steps: step budget.
            stop: optional predicate over the engine; the run stops after
                the first step for which it returns ``True``.

        Returns:
            The accumulated trace (also available via :attr:`trace`).
        """
        reason = "max-steps"
        if stop is None:
            self._engine.run(max_steps)
        else:
            for _ in range(max_steps):
                self._engine.step_lane(0)
                if stop(self):
                    reason = "stop-condition"
                    break
        trace = self.trace
        trace.stopped_reason = reason
        return trace

    def run_until(self, goal: StopCondition, max_steps: int) -> Trace:
        """Run until ``goal`` holds; raise if the budget is exhausted first.

        Raises:
            SimulationLimitError: when ``goal`` is still false after
                ``max_steps`` steps.
        """
        if goal(self):
            self._trace.stopped_reason = "goal-already-satisfied"
            return self.trace
        trace = self.run(max_steps, stop=goal)
        if trace.stopped_reason != "stop-condition":
            raise SimulationLimitError(
                f"goal not reached within {max_steps} steps "
                f"(algorithm={self._engine.algorithm.name}, scheduler={self._scheduler.name})"
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
            quiet = 0 if event.moves or self.pending_robots() else quiet + 1
            if quiet >= window:
                self._trace.stopped_reason = "stable"
                return self._trace
        self._trace.stopped_reason = "max-steps"
        return self._trace
