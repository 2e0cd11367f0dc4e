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
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.batchsim import BatchEngine
from repro.core.configuration import Configuration
from repro.core.errors import SimulationLimitError
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
from repro.workloads.generators import random_rigid_configuration

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


@pytest.mark.parametrize(
    "cache_options",
    [
        {"decision_cache": True},
        {"decision_cache": False},
        {"decision_cache": True, "decision_cache_size": 2},
    ],
    ids=["cache-on", "cache-off", "cache-size-2"],
)
@pytest.mark.parametrize("scheduler_name", ["round_robin", "asynchronous"])
class TestGreedyBaselineLanes:
    """E5's greedy strawman: slow-path lanes sharing one Look table."""

    def test_traces_byte_identical(self, cache_options, scheduler_name):
        from repro.algorithms.baselines import GreedyGatherBaseline
        from repro.experiments.e5_gathering import _BASELINE_OPTIONS
        from repro.workloads.generators import rigid_configurations

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
