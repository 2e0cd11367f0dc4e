"""Differential certification: batched traces == per-run traces, bytewise.

Every test runs the same (algorithm, initial configuration, scheduler,
options) workload through the incremental :class:`Simulator` and through
:class:`BatchEngine` and compares ``Trace.canonical_bytes()`` — the byte
representation hashed into run payloads and summaries — or, where events
are not recorded, the aggregate counters.  The matrix covers every
scheduler, fast-path (pure global rule) and slow-path algorithms,
collision and precondition aborts, and the periodic orbit fast-forward.
"""

import random

import pytest

from repro.algorithms import (
    AlignAlgorithm,
    GatheringAlgorithm,
    IdleAlgorithm,
    NminusThreeAlgorithm,
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.algorithms.baselines import GreedyGatherBaseline
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
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.tasks import ExplorationMonitor, GatheringMonitor, SearchingMonitor
from repro.workloads.generators import random_rigid_configuration, rigid_configurations

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


def per_run_outcome(algorithm_factory, configuration, scheduler, options, steps):
    """(exception-type-name, message-or-None, canonical trace bytes)."""
    simulator = Simulator(
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


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_FACTORIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestByteIdentity:
    def test_traces_byte_identical(self, algorithm_name, scheduler_name):
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
        engine.run(60)
        batched = [
            (None, None, engine.lane_trace(i).canonical_bytes())
            for i in range(engine.num_lanes)
        ]
        assert batched == reference


CACHE_OPTIONS = pytest.mark.parametrize(
    "cache_options",
    [
        {"decision_cache": True},
        {"decision_cache": False},
        {"decision_cache": True, "decision_cache_size": 2},
    ],
    ids=["cache-on", "cache-off", "cache-size-2"],
)


@CACHE_OPTIONS
@pytest.mark.parametrize("scheduler_name", ["round_robin", "asynchronous"])
class TestGreedyBaselineLanes:
    """E5's greedy strawman: slow-path lanes sharing one Look table."""

    def test_traces_byte_identical(self, cache_options, scheduler_name):
        from repro.experiments.e5_gathering import _BASELINE_OPTIONS

        options = _BASELINE_OPTIONS.with_overrides(**cache_options)
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
            simulator = Simulator(AlignAlgorithm(), configuration)
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
        simulator = Simulator(AlignAlgorithm(), star)
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
            simulator = Simulator(
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
            simulator = Simulator(RingClearingAlgorithm(), configuration)
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
        simulator = Simulator(RingClearingAlgorithm(), configuration)
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
        simulator = Simulator(RingClearingAlgorithm(), configuration)
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
            simulator = Simulator(RingClearingAlgorithm(), configuration)
            simulator.run(400)
            classes.add(simulator.configuration.canonical_key())

        def stop(configuration):
            return configuration.canonical_key() in classes

        reference = []
        for configuration in configurations:
            simulator = Simulator(RingClearingAlgorithm(), configuration)
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
        simulator = Simulator(
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
            simulator = Simulator(
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
            simulator = Simulator(
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


def _per_run_state(algorithm_factory, configuration, options, steps):
    simulator = Simulator(algorithm_factory(), configuration, options=options)
    simulator.run(steps)
    return (
        tuple(simulator.robot(j).position for j in range(simulator.num_robots)),
        simulator.step_count,
        simulator.trace.total_moves,
        simulator.configuration.counts,
        simulator._rng.getstate(),
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

    @CACHE_OPTIONS
    @pytest.mark.parametrize("chirality", [False, True], ids=["draws", "chirality"])
    def test_greedy_lanes_match_per_run(self, cache_options, chirality):
        from repro.experiments.e5_gathering import _BASELINE_OPTIONS

        options = _BASELINE_OPTIONS.with_overrides(chirality=chirality, **cache_options)
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
