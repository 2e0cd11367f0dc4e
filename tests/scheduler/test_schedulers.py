"""Unit tests for the scheduler layer."""

import pytest

from repro.core.configuration import Configuration
from repro.core.errors import SchedulerError
from repro.algorithms.baselines import IdleAlgorithm, SweepAlgorithm
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


def make_engine(algorithm=None, scheduler=None, n=8, occupied=(0, 2, 5), **kwargs):
    return Simulator(
        algorithm or IdleAlgorithm(),
        Configuration.from_occupied(n, occupied),
        scheduler=scheduler,
        **kwargs,
    )


class TestActivation:
    def test_constructors(self):
        assert Activation.cycle([1]).kind is ActivationKind.CYCLE
        assert Activation.look([0, 1]).robots == (0, 1)
        assert Activation.move([2]).kind is ActivationKind.MOVE

    def test_requires_robots(self):
        with pytest.raises(ValueError):
            Activation.cycle([])


class TestSequentialScheduler:
    def test_round_robin_cycles_through_robots(self):
        scheduler = SequentialScheduler()
        engine = make_engine(scheduler=scheduler)
        picks = [scheduler.next_activation(engine).robots[0] for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_alias(self):
        scheduler = RoundRobinScheduler()
        engine = make_engine(scheduler=scheduler)
        assert scheduler.next_activation(engine).robots == (0,)

    def test_random_policy_is_fair_and_seeded(self):
        scheduler = SequentialScheduler(policy="random", seed=7)
        engine = make_engine(scheduler=scheduler)
        picks = [scheduler.next_activation(engine).robots[0] for _ in range(60)]
        assert set(picks) == {0, 1, 2}
        scheduler2 = SequentialScheduler(policy="random", seed=7)
        engine2 = make_engine(scheduler=scheduler2)
        picks2 = [scheduler2.next_activation(engine2).robots[0] for _ in range(60)]
        assert picks == picks2

    def test_callback_policy(self):
        scheduler = SequentialScheduler(policy=lambda engine: 1)
        engine = make_engine(scheduler=scheduler)
        assert scheduler.next_activation(engine).robots == (1,)

    def test_callback_policy_validated(self):
        scheduler = SequentialScheduler(policy=lambda engine: 99)
        engine = make_engine(scheduler=scheduler)
        with pytest.raises(SchedulerError):
            scheduler.next_activation(engine)

    def test_unknown_policy(self):
        scheduler = SequentialScheduler(policy="whatever")
        engine = make_engine(scheduler=scheduler)
        with pytest.raises(SchedulerError):
            scheduler.next_activation(engine)

    def test_reset_restarts_round_robin(self):
        scheduler = SequentialScheduler()
        engine = make_engine(scheduler=scheduler)
        scheduler.next_activation(engine)
        scheduler.reset()
        assert scheduler.next_activation(engine).robots == (0,)


class TestSynchronousSchedulers:
    def test_fsync_activates_everyone(self):
        scheduler = SynchronousScheduler()
        engine = make_engine(scheduler=scheduler)
        activation = scheduler.next_activation(engine)
        assert activation.kind is ActivationKind.CYCLE
        assert activation.robots == (0, 1, 2)

    def test_ssync_subsets_are_nonempty_and_fair(self):
        scheduler = SemiSynchronousScheduler(seed=3, fairness_bound=5)
        engine = make_engine(scheduler=scheduler)
        last_seen = {0: 0, 1: 0, 2: 0}
        for step in range(100):
            activation = scheduler.next_activation(engine)
            assert activation.robots
            for robot in activation.robots:
                last_seen[robot] = step
        assert all(100 - seen <= 10 for seen in last_seen.values())

    def test_ssync_validates_fairness_bound(self):
        with pytest.raises(SchedulerError):
            SemiSynchronousScheduler(fairness_bound=0)


class TestScriptedScheduler:
    def test_replays_script(self):
        script = [Activation.look([0]), Activation.move([0]), Activation.cycle([1])]
        scheduler = ScriptedScheduler(script, repeat=False)
        engine = make_engine(scheduler=scheduler)
        kinds = [scheduler.next_activation(engine).kind for _ in range(3)]
        assert kinds == [ActivationKind.LOOK, ActivationKind.MOVE, ActivationKind.CYCLE]
        with pytest.raises(SchedulerError):
            scheduler.next_activation(engine)

    def test_repeats_by_default(self):
        scheduler = ScriptedScheduler([Activation.cycle([2])])
        engine = make_engine(scheduler=scheduler)
        for _ in range(5):
            assert scheduler.next_activation(engine).robots == (2,)

    def test_empty_script_rejected(self):
        with pytest.raises(SchedulerError):
            ScriptedScheduler([])


class TestAsynchronousScheduler:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            AsynchronousScheduler(move_bias=2.0)
        with pytest.raises(SchedulerError):
            AsynchronousScheduler(max_pending_age=0)

    def test_pending_moves_eventually_executed(self):
        # The naive sweep can collide under full asynchrony (moves executed
        # on outdated snapshots); record collisions instead of raising, the
        # point of this test is scheduler fairness.
        scheduler = AsynchronousScheduler(seed=11, move_bias=0.1, max_pending_age=5)
        engine = make_engine(
            algorithm=SweepAlgorithm(),
            scheduler=scheduler,
            n=10,
            occupied=(0, 4, 7),
            options=EngineOptions(collision_policy="record"),
        )
        engine.run(200)
        # Under the sweep algorithm with a fair async adversary every robot
        # eventually both looks and moves.
        robots = set(range(engine.num_robots))
        looked = {
            r for e in engine.trace.events if e.kind is not ActivationKind.MOVE for r in e.robots
        }
        assert looked == robots
        moved = engine.trace.moves_per_robot()
        assert {r for r in robots if moved.get(r, 0) > 0} == robots

    def test_deterministic_given_seed(self):
        def run(seed):
            scheduler = AsynchronousScheduler(seed=seed)
            engine = make_engine(
                algorithm=SweepAlgorithm(),
                scheduler=scheduler,
                n=10,
                occupied=(0, 4, 7),
                options=EngineOptions(collision_policy="record"),
            )
            engine.run(100)
            return engine.positions

        assert run(5) == run(5)
