"""Differential certification: engine traces == reference traces, bytewise.

Every test runs the same (algorithm, initial configuration, scheduler,
options) workload through the naive reference stepper
(``tests/reference_stepper.py``, which shares no stepping code with the
package) and through :class:`BatchEngine` or its one-lane facade
:class:`Simulator`, and compares ``Trace.canonical_bytes()`` — the byte
representation hashed into run payloads and summaries — or, where events
are not recorded, the aggregate counters and the presentation RNG state.
The matrix covers every scheduler, plan-table (pure global rule) and
Look-table algorithms, collision and precondition aborts, and the
periodic orbit fast-forward; the ``memo_bounds`` cases run again with
every memo bound of the engine at 1.
"""

import logging
import random

import pytest

import repro.algorithms.gathering as gathering_module

from repro.algorithms import (
    AlignAlgorithm,
    GatheringAlgorithm,
    IdleAlgorithm,
    NminusThreeAlgorithm,
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.algorithms.baselines import GreedyGatherBaseline
from repro.algorithms.gathering import gathering_supported
from repro.batchsim import BatchEngine
from repro.core.configuration import Configuration
from repro.core.errors import CollisionError, SimulationLimitError
from repro.scheduler import (
    Activation,
    ActivationKind,
    AsynchronousScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    SemiSynchronousScheduler,
    SequentialScheduler,
    SynchronousScheduler,
)
from repro.model import GlobalRuleAlgorithm
from repro.simulator.classplan import SELF_CHECKS, ClassPlanTable
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.simulator.runner import run_gathering
from repro.tasks import ExplorationMonitor, GatheringMonitor, SearchingMonitor
from repro.workloads.generators import random_rigid_configuration, rigid_configurations
from reference_stepper import ReferenceStepper

SCHEDULER_FACTORIES = {
    "round_robin": lambda i: SequentialScheduler(),
    "round_robin_subclass": lambda i: RoundRobinScheduler(),
    "sequential_random": lambda i: SequentialScheduler(policy="random", seed=7 + i),
    "synchronous": lambda i: SynchronousScheduler(),
    "semi_synchronous": lambda i: SemiSynchronousScheduler(seed=31 + i),
    "asynchronous": lambda i: AsynchronousScheduler(seed=97 + i),
}

ALGORITHMS = {
    # (factory, options): fast path (pure global rules) and slow path.
    "align": (AlignAlgorithm, EngineOptions()),
    "sweep": (SweepAlgorithm, EngineOptions(collision_policy="record")),
    "idle": (IdleAlgorithm, EngineOptions()),
    "gathering": (
        GatheringAlgorithm,
        EngineOptions(exclusive=False, multiplicity_detection=True),
    ),
}


def sample_configurations(n, k, count, seed0=1000):
    return [
        random_rigid_configuration(n, k, random.Random(seed0 + i))
        for i in range(count)
    ]


def per_run_outcome(
    algorithm_factory, configuration, scheduler, options, steps, runner=ReferenceStepper
):
    """(exception-type-name, message-or-None, canonical trace bytes)."""
    simulator = runner(
        algorithm_factory(), configuration, scheduler=scheduler, options=options
    )
    try:
        simulator.run(steps)
        return (None, None, simulator.trace.canonical_bytes())
    except Exception as error:  # noqa: BLE001 - parity includes the abort
        return (type(error).__name__, str(error), simulator.trace.canonical_bytes())


def batch_outcome(algorithm_factory, configuration, scheduler_factory, options, steps):
    engine = BatchEngine(
        algorithm_factory(),
        [configuration],
        scheduler_factory=scheduler_factory,
        options=options,
    )
    try:
        engine.run(steps)
        return (None, None, engine.lane_trace(0).canonical_bytes())
    except Exception as error:  # noqa: BLE001
        return (type(error).__name__, str(error), engine.lane_trace(0).canonical_bytes())


@pytest.fixture(params=["default-bounds", "bounds-1"])
def memo_bounds(request):
    """Run a test at the engine's memo bounds, and again with every bound at 1."""
    if request.param == "bounds-1":
        request.getfixturevalue("memo_bounds_of_one")
    return request.param


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestByteIdentity:
    def test_traces_byte_identical(self, algorithm_name, scheduler_name, memo_bounds):
        algorithm_factory, options = ALGORITHMS[algorithm_name]
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        configurations = sample_configurations(12, 5, 4)
        reference = [
            per_run_outcome(
                algorithm_factory, configuration, scheduler_factory(i), options, 60
            )
            for i, configuration in enumerate(configurations)
        ]
        engine = BatchEngine(
            algorithm_factory(),
            configurations,
            scheduler_factory=scheduler_factory,
            options=options,
        )
        if memo_bounds == "bounds-1":
            assert engine.pool.maxsize == engine.decision_cache.maxsize == 1
        engine.run(60)
        batched = [
            (None, None, engine.lane_trace(i).canonical_bytes())
            for i in range(engine.num_lanes)
        ]
        assert batched == reference


@pytest.mark.parametrize("scheduler_name", ["round_robin", "asynchronous"])
class TestGreedyBaselineLanes:
    """E5's greedy strawman: slow-path lanes sharing one Look table."""

    def test_traces_byte_identical(self, memo_bounds, scheduler_name):
        from repro.experiments.e5_gathering import _BASELINE_OPTIONS

        options = _BASELINE_OPTIONS
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        configurations = rigid_configurations(11, 5)[:8]
        steps = 200
        reference = [
            per_run_outcome(
                GreedyGatherBaseline, configuration, scheduler_factory(i), options, steps
            )
            for i, configuration in enumerate(configurations)
        ]
        engine = BatchEngine(
            GreedyGatherBaseline(),
            configurations,
            scheduler_factory=scheduler_factory,
            options=options,
        )
        engine.run(steps)
        assert [
            (None, None, engine.lane_trace(i).canonical_bytes())
            for i in range(engine.num_lanes)
        ] == reference


class TestAbortParity:
    def test_collision_abort_matches(self):
        """Sweep under FSYNC collides; type, message and trace must match."""
        configurations = sample_configurations(12, 5, 6)
        options = EngineOptions()
        outcomes = set()
        for i, configuration in enumerate(configurations):
            reference = per_run_outcome(
                SweepAlgorithm, configuration, SynchronousScheduler(), options, 60
            )
            got = batch_outcome(
                SweepAlgorithm,
                configuration,
                lambda i: SynchronousScheduler(),
                options,
                60,
            )
            assert got == reference
            outcomes.add(reference[0])
        assert "CollisionError" in outcomes, "workload never collided; test is vacuous"

    def test_limit_error_on_unreachable_goal(self):
        configurations = sample_configurations(12, 5, 2)
        engine = BatchEngine(IdleAlgorithm(), configurations)
        with pytest.raises(SimulationLimitError, match="goal not reached within 5 steps"):
            engine.run_until_configuration(lambda c: c.is_c_star(), max_steps=5)


@pytest.mark.parametrize("invariant", [False, True])
class TestRunUntil:
    def test_goal_reached_matches_per_run(self, invariant):
        configurations = sample_configurations(16, 5, 6, seed0=300)
        reference = []
        for configuration in configurations:
            simulator = ReferenceStepper(AlignAlgorithm(), configuration)
            simulator.run_until(
                lambda e: e.configuration.is_c_star(), max_steps=4000
            )
            reference.append(simulator.trace.canonical_bytes())
        engine = BatchEngine(AlignAlgorithm(), configurations)
        engine.run_until_configuration(
            lambda c: c.is_c_star(), max_steps=4000, invariant=invariant
        )
        assert [
            engine.lane_trace(i).canonical_bytes() for i in range(engine.num_lanes)
        ] == reference
        assert {
            engine.lane(i).stopped_reason for i in range(engine.num_lanes)
        } == {"goal-reached"}

    def test_goal_already_satisfied(self, invariant):
        star = Configuration.from_occupied(9, [0, 1, 2, 3, 5])
        assert star.is_c_star()
        simulator = ReferenceStepper(AlignAlgorithm(), star)
        simulator.run_until(lambda e: e.configuration.is_c_star(), max_steps=10)
        engine = BatchEngine(AlignAlgorithm(), [star])
        engine.run_until_configuration(
            lambda c: c.is_c_star(), max_steps=10, invariant=invariant
        )
        assert engine.lane(0).stopped_reason == "goal-already-satisfied"
        assert (
            engine.lane_trace(0).canonical_bytes()
            == simulator.trace.canonical_bytes()
        )


class TestScriptedScheduler:
    def test_look_move_cycle_script(self):
        script = [
            Activation(kind=ActivationKind.LOOK, robots=(0, 2)),
            Activation(kind=ActivationKind.MOVE, robots=(0,)),
            Activation(kind=ActivationKind.CYCLE, robots=(1, 3)),
            Activation(kind=ActivationKind.MOVE, robots=(2,)),
        ]
        configurations = sample_configurations(12, 5, 4)
        reference = []
        for configuration in configurations:
            simulator = ReferenceStepper(
                AlignAlgorithm(), configuration, scheduler=ScriptedScheduler(script)
            )
            simulator.run(12)
            reference.append(simulator.trace.canonical_bytes())
        engine = BatchEngine(
            AlignAlgorithm(),
            configurations,
            scheduler_factory=lambda i: ScriptedScheduler(script),
        )
        engine.run(12)
        assert [
            engine.lane_trace(i).canonical_bytes() for i in range(engine.num_lanes)
        ] == reference


class TestOrbitFastForward:
    """Perpetual runs with record_events=False skip full periods.

    Traces are unavailable, but every aggregate the campaign layer
    consumes — total moves, step count, final occupancy, final robot
    positions, stopped reason — must equal the per-run engine's.
    """

    def test_perpetual_aggregates_match(self):
        n, k = 13, 5
        steps = 30 * n * k
        configurations = sample_configurations(n, k, 4)
        reference = []
        for configuration in configurations:
            simulator = ReferenceStepper(RingClearingAlgorithm(), configuration)
            simulator.run(steps)
            reference.append(
                (
                    sum(len(e.moves) for e in simulator.trace.events),
                    simulator.step_count,
                    simulator.configuration.counts,
                    tuple(simulator.robot(j).position for j in range(k)),
                    simulator.trace.stopped_reason,
                )
            )
        engine = BatchEngine(
            RingClearingAlgorithm(),
            configurations,
            record_events=False,
        )
        engine.run(steps)
        batched = [
            (
                engine.lane(i).total_moves,
                engine.lane(i).step_count,
                engine.lane(i).counts_tuple,
                tuple(engine.lane(i).positions),
                engine.lane(i).stopped_reason,
            )
            for i in range(engine.num_lanes)
        ]
        assert batched == reference

    def test_skip_actually_engaged(self):
        """Guard against silently losing the optimisation."""
        n, k = 13, 5
        configuration = sample_configurations(n, k, 1)[0]
        engine = BatchEngine(
            RingClearingAlgorithm(), [configuration], record_events=False
        )
        engine.run(30 * n * k)
        # Round-boundary memory must be bounded by the orbit, far below
        # the number of rounds executed.
        assert 0 < len(engine.lane(0).orbit) < (30 * n * k) // k

    def test_recorded_runs_never_skip(self):
        n, k = 13, 5
        steps = 10 * n * k
        configuration = sample_configurations(n, k, 1)[0]
        simulator = ReferenceStepper(RingClearingAlgorithm(), configuration)
        simulator.run(steps)
        engine = BatchEngine(RingClearingAlgorithm(), [configuration])
        engine.run(steps)
        assert not engine.lane(0).orbit
        assert (
            engine.lane_trace(0).canonical_bytes()
            == simulator.trace.canonical_bytes()
        )

    def test_two_phase_run_matches(self):
        """run() twice (budget extension) stays aligned with per-run."""
        n, k = 13, 5
        configuration = sample_configurations(n, k, 1)[0]
        simulator = ReferenceStepper(RingClearingAlgorithm(), configuration)
        simulator.run(4 * n * k)
        simulator.run(26 * n * k)
        engine = BatchEngine(
            RingClearingAlgorithm(), [configuration], record_events=False
        )
        engine.run(4 * n * k)
        engine.run(26 * n * k)
        assert engine.lane(0).step_count == simulator.step_count
        assert engine.lane(0).counts_tuple == simulator.configuration.counts
        assert tuple(engine.lane(0).positions) == tuple(
            simulator.robot(j).position for j in range(k)
        )

    def test_orbit_memory_starts_empty_every_run(self):
        """A stop predicate is asked about every state its own run visits.

        The first run remembers round-boundary states its predicate-free
        budget never checked; the second run must not fast-forward
        through them past the configurations its predicate matches.
        """
        n, k = 12, 6
        rng = random.Random(3)
        configurations = [random_rigid_configuration(n, k, rng) for _ in range(4)]
        classes = set()
        for configuration in configurations:
            simulator = ReferenceStepper(RingClearingAlgorithm(), configuration)
            simulator.run(400)
            classes.add(simulator.configuration.canonical_key())

        def stop(configuration):
            return configuration.canonical_key() in classes

        reference = []
        for configuration in configurations:
            simulator = ReferenceStepper(RingClearingAlgorithm(), configuration)
            simulator.run(300)
            simulator.run(2000, stop=lambda e: stop(e.configuration))
            reference.append((simulator.step_count, simulator.trace.stopped_reason))
        engine = BatchEngine(
            RingClearingAlgorithm(), configurations, record_events=False
        )
        engine.run(300)
        engine.run(2000, stop_configuration=stop, stop_invariant=True)
        assert [
            (engine.lane(i).step_count, engine.lane(i).stopped_reason)
            for i in range(engine.num_lanes)
        ] == reference
        assert {reason for _, reason in reference} == {"stop-condition"}


class TestMonitors:
    def test_searching_monitor_matches_per_run(self):
        from repro.analysis.metrics import clearing_metrics
        from repro.tasks.searching import SearchingMonitor

        n, k = 13, 5
        steps = 8 * n * k
        configuration = sample_configurations(n, k, 1)[0]

        per_run_monitor = SearchingMonitor()
        simulator = ReferenceStepper(
            RingClearingAlgorithm(), configuration, monitors=[per_run_monitor]
        )
        simulator.run(steps)

        batch_monitors = []

        def monitors_factory(index):
            monitor = SearchingMonitor()
            batch_monitors.append(monitor)
            return [monitor]

        engine = BatchEngine(
            RingClearingAlgorithm(),
            [configuration],
            monitors_factory=monitors_factory,
        )
        engine.run(steps)

        reference = clearing_metrics(per_run_monitor)
        batched = clearing_metrics(batch_monitors[0])
        assert batched == reference
        assert reference.moves_to_full_clear is not None


class TestRecordingFlag:
    def test_lane_trace_requires_recording(self):
        configuration = sample_configurations(12, 5, 1)[0]
        engine = BatchEngine(AlignAlgorithm(), [configuration], record_events=False)
        engine.run(10)
        assert engine.lane(0).total_moves >= 0
        with pytest.raises(RuntimeError, match="record_events=False"):
            engine.lane_trace(0)


class TestPackedStates:
    def test_packed_states_match_codec(self):
        from repro.core.cyclic import packed_codec

        configurations = sample_configurations(12, 5, 3)
        engine = BatchEngine(AlignAlgorithm(), configurations)
        engine.run(25)
        codec = packed_codec(12, max(max(c) for c in (
            engine.lane(i).counts_tuple for i in range(3)
        )))
        packed = engine.packed_states()
        assert packed == codec.pack_many(
            [engine.lane(i).counts_tuple for i in range(3)]
        )


def _task_monitors():
    return (SearchingMonitor(), ExplorationMonitor(), GatheringMonitor())


def _monitor_record(monitors):
    """Everything the experiments read off one lane's monitors."""
    searching, exploration, gathering = monitors
    return (
        [tuple(run) for run in searching._runs],
        searching.all_clear_steps,
        searching.moves_to_first_all_clear,
        exploration.visit_counts,
        exploration.visit_steps,
        gathering.occupied_history,
        gathering.gathered_at_step,
        gathering.max_multiplicity_seen,
        gathering.broke_apart_after_gathering,
    )


class TestMonitoredRoundRobinLanes:
    """Monitored round-robin lanes run in the hot loop, step for step."""

    @pytest.mark.parametrize(
        "algorithm_factory, n, k",
        [(RingClearingAlgorithm, 13, 5), (NminusThreeAlgorithm, 10, 7)],
        ids=["ring-clearing", "nminusthree"],
    )
    def test_monitors_match_per_run(self, algorithm_factory, n, k):
        configurations = rigid_configurations(n, k)[:4]
        steps = 8 * n * k
        reference = []
        for configuration in configurations:
            monitors = _task_monitors()
            simulator = ReferenceStepper(
                algorithm_factory(), configuration, monitors=list(monitors)
            )
            simulator.run(steps)
            reference.append(
                (_monitor_record(monitors), simulator.step_count, simulator.trace.total_moves)
            )
        lane_monitors = [_task_monitors() for _ in configurations]
        engine = BatchEngine(
            algorithm_factory(),
            configurations,
            monitors_factory=lambda i: lane_monitors[i],
            record_events=False,
        )

        def general_path(*args):
            raise AssertionError("a monitored round-robin lane left the hot loop")

        engine._step_lane = general_path
        engine.run(steps)
        assert [
            (_monitor_record(monitors), engine.lane(i).step_count, engine.lane(i).total_moves)
            for i, monitors in enumerate(lane_monitors)
        ] == reference
        assert all(searching.all_clear_steps for searching, _, _ in lane_monitors)

    def test_collision_reaches_monitors_before_raising(self):
        """Gathering under exclusivity collides; monitors saw that step."""
        options = EngineOptions(multiplicity_detection=True)
        for configuration in sample_configurations(12, 5, 4):
            monitors = _task_monitors()
            simulator = ReferenceStepper(
                GatheringAlgorithm(), configuration, options=options, monitors=list(monitors)
            )
            with pytest.raises(CollisionError) as per_run:
                simulator.run(200)
            lane_monitors = _task_monitors()
            engine = BatchEngine(
                GatheringAlgorithm(),
                [configuration],
                options=options,
                monitors_factory=lambda i: lane_monitors,
                record_events=False,
            )
            with pytest.raises(CollisionError) as batched:
                engine.run(200)
            assert str(batched.value) == str(per_run.value)
            assert engine.lane(0).step_count == simulator.step_count
            assert _monitor_record(lane_monitors) == _monitor_record(monitors)


def _per_run_state(algorithm_factory, configuration, options, steps, scheduler=None):
    simulator = ReferenceStepper(
        algorithm_factory(), configuration, options=options, scheduler=scheduler
    )
    simulator.run(steps)
    return _simulator_state(simulator)


def _simulator_state(simulator):
    return (
        tuple(simulator.robot(j).position for j in range(simulator.num_robots)),
        simulator.step_count,
        simulator.trace.total_moves,
        simulator.configuration.counts,
        simulator.rng.getstate(),
    )


def _lane_states(engine):
    return [
        (
            tuple(lane.positions),
            lane.step_count,
            lane.total_moves,
            lane.counts_tuple,
            lane.rng.getstate(),
        )
        for lane in map(engine.lane, range(engine.num_lanes))
    ]


class TestLookTableFastForward:
    """Look-table round-robin lanes skip only presentation-free periods.

    Without an event log the aggregates, the final positions and the
    presentation RNG state must all equal the per-run engine's.
    """

    @pytest.mark.parametrize("chirality", [False, True], ids=["draws", "chirality"])
    def test_greedy_lanes_match_per_run(self, memo_bounds, chirality):
        from repro.experiments.e5_gathering import _BASELINE_OPTIONS

        options = _BASELINE_OPTIONS.with_overrides(chirality=chirality)
        n, k = 11, 5
        steps = 30 * n * k + 200
        configurations = rigid_configurations(n, k)
        reference = [
            _per_run_state(GreedyGatherBaseline, configuration, options, steps)
            for configuration in configurations
        ]
        engine = BatchEngine(
            GreedyGatherBaseline(), configurations, options=options, record_events=False
        )
        engine.run(steps)
        assert _lane_states(engine) == reference

    @pytest.mark.parametrize("chirality", [False, True], ids=["draws", "chirality"])
    def test_orbits_with_ties_match_per_run(self, chirality):
        """Sweep's moves depend on the presentation at nearly every Look."""
        options = EngineOptions(chirality=chirality)
        configurations = sample_configurations(12, 5, 4)
        steps = 600
        reference = [
            _per_run_state(SweepAlgorithm, configuration, options, steps)
            for configuration in configurations
        ]
        if not chirality:
            reseeded = [
                _per_run_state(
                    SweepAlgorithm,
                    configuration,
                    options.with_overrides(presentation_seed=1),
                    steps,
                )[:4]
                for configuration in configurations
            ]
            assert reseeded != [state[:4] for state in reference], "no Look was a tie"
        engine = BatchEngine(
            SweepAlgorithm(), configurations, options=options, record_events=False
        )
        engine.run(steps)
        assert _lane_states(engine) == reference

    def test_skip_actually_engaged(self):
        """Guard against silently losing the optimisation."""
        from repro.experiments.e5_gathering import _BASELINE_OPTIONS

        n, k = 11, 5
        steps = 30 * n * k + 200
        configurations = rigid_configurations(n, k)
        engine = BatchEngine(
            GreedyGatherBaseline(),
            configurations,
            options=_BASELINE_OPTIONS,
            record_events=False,
        )
        looks = 0
        direction = engine._direction

        def counting_direction(*args):
            nonlocal looks
            looks += 1
            return direction(*args)

        engine._direction = counting_direction
        engine.run(steps)
        assert all(engine.lane(i).step_count == steps for i in range(engine.num_lanes))
        # Two Looks per simulated step (both presentation orders), yet
        # far fewer than one per budgeted step.
        assert 0 < looks < len(configurations) * steps // 10


class TestPlanLaneDraws:
    """Plan lanes draw their presentation RNG exactly as the per-run engine.

    One draw per Look, on plan steps and fast-forwarded steps too, and
    none under chirality: the RNG state is part of the compared state.
    """

    @pytest.mark.parametrize("chirality", [False, True], ids=["draws", "chirality"])
    @pytest.mark.parametrize("scheduler_name", ["round_robin", "asynchronous"])
    @pytest.mark.parametrize(
        "algorithm_factory, n, k, steps",
        [(AlignAlgorithm, 12, 5, 300), (RingClearingAlgorithm, 13, 5, 30 * 13 * 5)],
        ids=["align", "ring-clearing"],
    )
    def test_lane_state_matches_per_run(
        self, algorithm_factory, n, k, steps, scheduler_name, chirality
    ):
        options = EngineOptions(chirality=chirality)
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        configurations = sample_configurations(n, k, 4)
        reference = [
            _per_run_state(
                algorithm_factory, configuration, options, steps, scheduler_factory(i)
            )
            for i, configuration in enumerate(configurations)
        ]
        engine = BatchEngine(
            algorithm_factory(),
            configurations,
            scheduler_factory=scheduler_factory,
            options=options,
            record_events=False,
        )
        engine.run(steps)
        assert _lane_states(engine) == reference


class RiggedPlanner(GlobalRuleAlgorithm):
    """Adjacent-valid but rotation-variant: breaks the equivariance contract."""

    name = "rigged"

    def plan(self, configuration):
        mover = min(configuration.support)
        return {mover: (mover + 1) % configuration.n}


class NonAdjacentPlanner(GlobalRuleAlgorithm):
    """Planner that targets a non-adjacent node."""

    name = "teleporter"

    def plan(self, configuration):
        mover = min(configuration.support)
        return {mover: (mover + 3) % configuration.n}


class TestPlanTableFallbacks:
    """Where the class-plan table has no plan, lanes equal per-run runs."""

    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
    def test_mover_with_coinciding_views(self, scheduler_name):
        """Align moves the axis robot of this start; the presentation picks its way."""
        start = Configuration((1, 1, 1, 0, 0, 1, 0, 0))
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        reference = per_run_outcome(
            AlignAlgorithm, start, scheduler_factory(0), EngineOptions(), 20
        )
        assert reference[0] is None
        got = batch_outcome(AlignAlgorithm, start, scheduler_factory, EngineOptions(), 20)
        assert got == reference

    def test_rigged_planner_lanes_warn_once(self, caplog, fresh_plan_tables):
        options = EngineOptions(collision_policy="record")
        configurations = sample_configurations(9, 3, 4)
        reference = [
            per_run_outcome(RiggedPlanner, configuration, SequentialScheduler(), options, 30)
            for configuration in configurations
        ]
        with caplog.at_level(logging.WARNING, logger="repro.simulator.classplan"):
            engine = BatchEngine(RiggedPlanner(), configurations, options=options)
            engine.run(30)
        assert [
            (None, None, engine.lane_trace(i).canonical_bytes())
            for i in range(engine.num_lanes)
        ] == reference
        assert len(caplog.records) == 1
        assert "rigged" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("scheduler_name", ["round_robin", "synchronous"])
    def test_non_adjacent_target_raises_the_per_run_error(self, scheduler_name):
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        configuration = Configuration.from_occupied(9, [1, 4, 6])
        reference = per_run_outcome(
            NonAdjacentPlanner, configuration, scheduler_factory(0), EngineOptions(), 10
        )
        assert reference[0] == "AlgorithmPreconditionError"
        got = batch_outcome(
            NonAdjacentPlanner, configuration, scheduler_factory, EngineOptions(), 10
        )
        assert got == reference


def _e5_quick_cells():
    from repro.campaign.spec import build_campaign
    from repro.experiments.e5_gathering import _starting_configurations

    for unit in build_campaign("e5", "quick").units:
        if gathering_supported(unit.n, unit.k):
            starts = _starting_configurations(unit.n, unit.k, unit.samples, unit.seed)
            yield starts, 30 * unit.n * unit.k + 200


def _e7_quick_cells():
    from repro.campaign.spec import build_campaign

    for unit in build_campaign("e7", "quick").units:
        if gathering_supported(unit.n, unit.k):
            rng = random.Random(unit.seed + 1)
            starts = [
                random_rigid_configuration(unit.n, unit.k, rng) for _ in range(unit.samples)
            ]
            yield starts, 60 * unit.n * unit.k + 400


#: The reference stepper's Gathering states per cell generator (it has
#: no cache, so the cache options do not change them).
_GATHERING_REFERENCE = {}


def _reference_gathering_states(cells, options):
    if cells not in _GATHERING_REFERENCE:
        states = []
        for starts, budget in cells():
            for configuration in starts:
                stepper = ReferenceStepper(GatheringAlgorithm(), configuration, options=options)
                stepper.run_until(lambda s: s.configuration.num_occupied == 1, budget)
                states.append(_simulator_state(stepper))
        _GATHERING_REFERENCE[cells] = states
    return _GATHERING_REFERENCE[cells]


class TestGatheringLanes:
    """E5/E7 Gathering lanes equal the reference and one ``run_gathering`` per start."""

    @pytest.mark.parametrize(
        "cells", [_e5_quick_cells, _e7_quick_cells], ids=["e5-quick", "e7-quick"]
    )
    def test_lanes_match_run_gathering(self, cells, memo_bounds, fresh_plan_tables):
        """Lanes of a cell share one table; each per-run engine starts empty."""
        options = EngineOptions(exclusive=False, multiplicity_detection=True)
        reference = _reference_gathering_states(cells, options)
        calls = {"per-run": 0, "lanes": 0}
        phase = "per-run"
        original = gathering_module.plan_gathering_support

        def counting(configuration):
            calls[phase] += 1
            return original(configuration)

        per_run, batched = [], []
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(gathering_module, "plan_gathering_support", counting)
            for starts, budget in cells():
                phase = "per-run"
                for configuration in starts:
                    fresh_plan_tables()
                    _, simulator = run_gathering(
                        GatheringAlgorithm(), configuration, max_steps=budget, options=options
                    )
                    per_run.append(
                        (
                            simulator.positions,
                            simulator.step_count,
                            simulator.trace.total_moves,
                            simulator.configuration.counts,
                        )
                    )
                phase = "lanes"
                fresh_plan_tables()
                engine = BatchEngine(
                    GatheringAlgorithm(), starts, options=options, record_events=False
                )
                engine.run_until_configuration(
                    lambda c: c.num_occupied == 1, budget, invariant=True
                )
                batched.extend(_lane_states(engine))
        assert batched == reference
        assert per_run == [state[:4] for state in reference]
        assert all(sum(1 for c in state[3] if c) == 1 for state in batched)
        assert 0 < calls["lanes"] < calls["per-run"]


class TestSharedPlanTable:
    """Engines of one algorithm share one class-plan table, whatever their lanes."""

    def test_one_and_two_lanes_share_one_table_and_budget(
        self, monkeypatch, fresh_plan_tables
    ):
        calls = {"global_plan": 0, "self_check": 0}

        class CountingAlign(AlignAlgorithm):
            def global_plan(self, configuration):
                calls["global_plan"] += 1
                return super().global_plan(configuration)

        self_check = ClassPlanTable._self_check

        def counting_self_check(table, *args):
            calls["self_check"] += 1
            return self_check(table, *args)

        monkeypatch.setattr(ClassPlanTable, "_self_check", counting_self_check)
        starts = sample_configurations(12, 5, 2)
        one = BatchEngine(CountingAlign(), starts[:1])
        one.run(200)
        assert calls["global_plan"] > 0 and calls["self_check"] > 0
        two = BatchEngine(CountingAlign(), starts)
        two.run(200)
        assert two._plan_table is one._plan_table
        assert calls["self_check"] <= SELF_CHECKS
        assert one.lane_trace(0).canonical_bytes() == two.lane_trace(0).canonical_bytes()
        # Every class of the first start is planned already.
        before = dict(calls)
        again = BatchEngine(CountingAlign(), starts[:1])
        again.run(200)
        assert calls == before
        assert again.lane_trace(0).canonical_bytes() == one.lane_trace(0).canonical_bytes()


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestSimulatorFacade:
    """The one-lane ``Simulator`` facade against the reference stepper."""

    def test_traces_byte_identical(self, algorithm_name, scheduler_name):
        algorithm_factory, options = ALGORITHMS[algorithm_name]
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        for i, configuration in enumerate(sample_configurations(12, 5, 2)):
            assert per_run_outcome(
                algorithm_factory, configuration, scheduler_factory(i), options, 60,
                runner=Simulator,
            ) == per_run_outcome(
                algorithm_factory, configuration, scheduler_factory(i), options, 60
            )

    def test_single_steps_in_caller_robot_order(self, algorithm_name, scheduler_name):
        """Positions given in any order keep their robot ids, step by step."""
        algorithm_factory, options = ALGORITHMS[algorithm_name]
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        positions = [6, 1, 9, 0, 4]  # a rigid start, robot ids out of node order
        runs = [
            runner(
                algorithm_factory(),
                positions,
                ring_size=12,
                scheduler=scheduler_factory(0),
                options=options.with_overrides(collision_policy="record"),
            )
            for runner in (Simulator, ReferenceStepper)
        ]
        for _ in range(40):
            assert runs[0].step() == runs[1].step()
            assert runs[0].positions == runs[1].positions
            assert runs[0].pending_robots() == runs[1].pending_robots()
        assert runs[0].trace.initial_positions == tuple(positions)
        assert runs[0].trace.canonical_bytes() == runs[1].trace.canonical_bytes()


class TestSimulatorRunModes:
    @pytest.mark.parametrize("scheduler_name", ["round_robin", "asynchronous"])
    def test_run_until_stable_matches_reference(self, scheduler_name):
        scheduler_factory = SCHEDULER_FACTORIES[scheduler_name]
        configuration = sample_configurations(12, 5, 1, seed0=77)[0]
        traces = []
        for runner in (Simulator, ReferenceStepper):
            run = runner(AlignAlgorithm(), configuration, scheduler=scheduler_factory(0))
            trace = run.run_until_stable(2000)
            traces.append((trace.stopped_reason, trace.canonical_bytes()))
        assert traces[0] == traces[1]
        assert traces[0][0] == "stable"

    def test_stop_predicate_over_the_simulator(self):
        """A stop predicate may read any simulator state, not just the configuration."""
        configuration = sample_configurations(13, 5, 1)[0]
        outcomes = []
        for runner in (Simulator, ReferenceStepper):
            run = runner(RingClearingAlgorithm(), configuration)
            trace = run.run(500, stop=lambda sim: sim.step_count >= 37)
            outcomes.append((run.step_count, trace.stopped_reason, trace.canonical_bytes()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (37, "stop-condition")
