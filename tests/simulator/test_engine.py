"""Unit tests for the simulation engine and trace."""

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import (
    CollisionError,
    ExclusivityViolationError,
    InvalidConfigurationError,
    SimulationLimitError,
)
from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.baselines import IdleAlgorithm, SweepAlgorithm
from repro.model.algorithm import Algorithm
from repro.model.decisions import Decision
from repro.scheduler import (
    Activation,
    ActivationKind,
    AsynchronousScheduler,
    ScriptedScheduler,
    SequentialScheduler,
    SynchronousScheduler,
)
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.simulator.runner import run_gathering, run_to_configuration, simulate


class AlwaysMoveFirstView(Algorithm):
    """Pathological algorithm that moves blindly (can collide)."""

    name = "always-move"

    def compute(self, snapshot):
        return Decision.move_toward(0)


class TestConstruction:
    def test_from_configuration(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg)
        assert engine.ring_size == 8
        assert engine.num_robots == 3
        assert engine.positions == (0, 3, 5)
        assert engine.configuration == cfg

    def test_from_positions(self):
        engine = Simulator(
            IdleAlgorithm(),
            [1, 1, 4],
            ring_size=7,
            options=EngineOptions(exclusive=False, multiplicity_detection=True),
        )
        assert engine.num_robots == 3
        assert engine.configuration.multiplicity(1) == 2
        assert engine.robots_at(1) == (0, 1)

    def test_positions_require_ring_size(self):
        with pytest.raises(InvalidConfigurationError):
            Simulator(IdleAlgorithm(), [0, 1, 2])

    def test_exclusive_rejects_multiplicities(self):
        with pytest.raises(ExclusivityViolationError):
            Simulator(IdleAlgorithm(), [1, 1, 4], ring_size=7)

    def test_collision_policy_validated(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        with pytest.raises(ValueError):
            Simulator(IdleAlgorithm(), cfg, options=EngineOptions(collision_policy="ignore"))


class TestStepping:
    def test_idle_algorithm_never_moves(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg)
        trace = engine.run(20)
        assert trace.total_moves == 0
        assert engine.configuration == cfg
        # Every robot completed a Look-Compute cycle, and each one idled.
        cycled = {r for e in trace.events if e.kind is ActivationKind.CYCLE for r in e.robots}
        assert cycled == set(range(engine.num_robots))

    def test_step_counts_and_trace_growth(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg)
        engine.run(7)
        assert engine.step_count == 7
        assert engine.trace.num_steps == 7

    def test_sweep_moves_with_chirality(self):
        cfg = Configuration.from_occupied(6, [0, 3])
        engine = Simulator(SweepAlgorithm(), cfg, options=EngineOptions(chirality=True))
        event = engine.step()  # robot 0 moves clockwise to node 1
        assert len(event.moves) == 1
        assert event.moves[0].source == 0
        assert event.moves[0].target == 1

    def test_exclusivity_collision_raises(self):
        # The first sequentially-activated robot blindly moves clockwise onto
        # its occupied neighbour.
        cfg = Configuration.from_occupied(5, [0, 1, 3])
        engine = Simulator(AlwaysMoveFirstView(), cfg, options=EngineOptions(chirality=True))
        with pytest.raises(CollisionError):
            engine.run(5)

    def test_collision_policy_record(self):
        cfg = Configuration.from_occupied(5, [0, 1, 3])
        engine = Simulator(
            AlwaysMoveFirstView(),
            cfg,
            options=EngineOptions(chirality=True, collision_policy="record"),
        )
        engine.run(1)
        assert engine.trace.had_collision

    def test_async_scheduler_produces_look_and_move_events(self):
        cfg = Configuration.from_occupied(10, [0, 4, 7])
        engine = Simulator(
            SweepAlgorithm(),
            cfg,
            scheduler=AsynchronousScheduler(seed=1),
            options=EngineOptions(chirality=True),
        )
        engine.run(50)
        kinds = {event.kind.value for event in engine.trace.events}
        assert "look" in kinds
        assert "move" in kinds

    def test_scripted_pending_move_uses_outdated_snapshot(self):
        # Robot 0 looks, then robot 1 completes a full cycle, then robot 0
        # executes a move computed from the outdated snapshot.
        cfg = Configuration.from_occupied(10, [0, 4, 7])
        script = [
            Activation.look([0]),
            Activation.cycle([1]),
            Activation.move([0]),
        ]
        engine = Simulator(
            SweepAlgorithm(), cfg, scheduler=ScriptedScheduler(script), options=EngineOptions(chirality=True)
        )
        engine.run(3)
        assert engine.positions == (1, 5, 7)


class TestRobotView:
    def test_defaults(self):
        engine = Simulator(SweepAlgorithm(), Configuration.from_occupied(10, [0, 4, 7]))
        robot = engine.robot(1)
        assert robot.robot_id == 1
        assert robot.position == 4
        assert not robot.has_pending_move
        assert robot.pending_target is None
        assert [r.robot_id for r in engine.robots()] == [0, 1, 2]

    def test_pending_lifecycle(self):
        cfg = Configuration.from_occupied(10, [0, 4, 7])
        script = [Activation.look([0]), Activation.move([0])]
        engine = Simulator(
            SweepAlgorithm(),
            cfg,
            scheduler=ScriptedScheduler(script),
            options=EngineOptions(chirality=True),
        )
        engine.step()
        robot = engine.robot(0)
        assert robot.has_pending_move
        assert robot.pending_target == 1
        assert engine.pending_robots() == (0,)
        engine.step()
        assert not robot.has_pending_move
        assert robot.position == 1
        assert engine.pending_robots() == ()


class TestRunHelpers:
    def test_run_until_goal(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
        engine = Simulator(AlignAlgorithm(), cfg)
        trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), 600)
        assert trace.final_configuration.is_c_star()
        assert trace.stopped_reason == "goal-reached"

    def test_run_until_budget_exhausted(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg)
        with pytest.raises(SimulationLimitError):
            engine.run_until(lambda sim: sim.configuration.num_occupied == 1, 10)

    def test_run_until_goal_already_met(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg)
        trace = engine.run_until(lambda sim: True, 10)
        assert trace.num_steps == 0

    def test_run_until_stable(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
        engine = Simulator(AlignAlgorithm(), cfg)
        trace = engine.run_until_stable(600)
        assert trace.stopped_reason == "stable"
        assert trace.final_configuration.is_c_star()

    def test_simulate_helper(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        trace, engine = simulate(IdleAlgorithm(), cfg, steps=5)
        assert trace.num_steps == 5
        assert engine.configuration == cfg

    def test_run_to_configuration_helper(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
        trace, _ = run_to_configuration(
            AlignAlgorithm(), cfg, lambda c: c.is_c_star()
        )
        assert trace.final_configuration.is_c_star()

    def test_simulate_forwards_collision_policy_and_chirality(self):
        cfg = Configuration.from_occupied(5, [0, 1, 3])
        trace, engine = simulate(
            AlwaysMoveFirstView(),
            cfg,
            steps=1,
            options=EngineOptions(collision_policy="record", chirality=True),
        )
        assert engine.exclusive
        assert trace.had_collision  # recorded instead of raising

    def test_simulate_forwarded_collision_policy_is_validated(self):
        cfg = Configuration.from_occupied(5, [0, 1, 3])
        with pytest.raises(ValueError):
            simulate(
                AlwaysMoveFirstView(), cfg, options=EngineOptions(collision_policy="ignore")
            )

    def test_run_to_configuration_forwards_collision_policy_and_chirality(self):
        # With chirality, SweepAlgorithm deterministically walks robots
        # clockwise; "record" lets the blind mover pile up without raising.
        cfg = Configuration.from_occupied(5, [0, 1, 3])
        trace, engine = run_to_configuration(
            AlwaysMoveFirstView(),
            cfg,
            lambda c: c.num_occupied == 2,
            max_steps=1,
            options=EngineOptions(collision_policy="record", chirality=True),
        )
        assert trace.had_collision
        assert engine.configuration.num_occupied == 2

    def test_run_gathering_forwards_chirality(self):
        captured = []

        class Capture(Algorithm):
            name = "capture"

            def compute(self, snapshot):
                captured.append(snapshot.views[0])
                return Decision.idle()

        cfg = Configuration.from_occupied(9, [0, 1, 2, 4])
        with pytest.raises(SimulationLimitError):  # idle robots never gather
            run_gathering(
                Capture(), cfg, max_steps=40, options=EngineOptions(chirality=True)
            )
        # With chirality the clockwise view is always presented first, so
        # each robot reports a stable first view across activations.
        assert len(set(captured)) <= 4


class TestTraceQueries:
    def test_trace_moves_and_periods(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
        engine = Simulator(AlignAlgorithm(), cfg)
        trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), 600)
        assert trace.total_moves == len(trace.all_moves())
        assert trace.max_simultaneous_moves() == 1
        assert sum(trace.moves_per_robot().values()) == trace.total_moves
        assert trace.first_step_where(lambda c: c.is_c_star()) is not None
        assert "Trace(" in trace.summary()

    def test_configuration_period_detection(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg)
        engine.run(3)
        repeat = engine.trace.configuration_period()
        assert repeat == (0, 1)

    def test_iter_moves_matches_all_moves(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
        engine = Simulator(AlignAlgorithm(), cfg)
        engine.run(30)
        assert list(engine.trace.iter_moves()) == engine.trace.all_moves()


class TestSnapshotDelivery:
    def test_multiplicity_flag_delivered(self):
        captured = {}

        class Capture(Algorithm):
            name = "capture"

            def compute(self, snapshot):
                captured.setdefault("mult", []).append(snapshot.on_multiplicity)
                return Decision.idle()

        engine = Simulator(
            Capture(),
            [2, 2, 6],
            ring_size=9,
            options=EngineOptions(exclusive=False, multiplicity_detection=True),
        )
        engine.run(3)
        assert True in captured["mult"] and False in captured["mult"]

    def test_multiplicity_flag_hidden_without_capability(self):
        captured = []

        class Capture(Algorithm):
            name = "capture"

            def compute(self, snapshot):
                captured.append(snapshot.on_multiplicity)
                return Decision.idle()

        engine = Simulator(
            Capture(),
            [2, 2, 6],
            ring_size=9,
            options=EngineOptions(exclusive=False, multiplicity_detection=False),
        )
        engine.run(3)
        assert not any(captured)

    def test_presentation_order_varies_without_chirality(self):
        firsts = []

        class Capture(Algorithm):
            name = "capture"

            def compute(self, snapshot):
                firsts.append(snapshot.views[0])
                return Decision.idle()

        cfg = Configuration.from_occupied(9, [0, 1, 2, 4])
        engine = Simulator(Capture(), cfg, options=EngineOptions(presentation_seed=123))
        engine.run(40)
        assert len(set(firsts)) > 1


class TestEngineSizeKnobs:
    def test_invalid_bounds_rejected(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        with pytest.raises(ValueError):
            Simulator(IdleAlgorithm(), cfg, options=EngineOptions(config_pool_size=0))
        with pytest.raises(ValueError):
            Simulator(IdleAlgorithm(), cfg, options=EngineOptions(decision_cache_size=0))

    def test_decision_cache_size_forwarded(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(IdleAlgorithm(), cfg, options=EngineOptions(decision_cache_size=2))
        assert engine.decision_cache.maxsize == 2

    def test_runner_forwards_bounds(self):
        cfg = Configuration.from_occupied(9, [0, 1, 3, 6])
        baseline, _ = simulate(
            AlignAlgorithm(), cfg, steps=40, options=EngineOptions(presentation_seed=4)
        )
        bounded, _ = simulate(
            AlignAlgorithm(), cfg, steps=40,
            options=EngineOptions(
                presentation_seed=4, decision_cache_size=1, config_pool_size=1
            ),
        )
        assert baseline.canonical_bytes() == bounded.canonical_bytes()
