"""Property tests: scheduler fairness and engine/model-checker agreement.

Two families of properties:

* **Bounded fairness** — every scheduler with a fairness guarantee must
  activate every robot within a bounded window of steps, for every seed.
* **Transition-relation consistency** — every step the engine actually
  executes under an atomic scheduler must be a transition the model
  checker's branching driver enumerates for the same configuration, and
  every pending move committed by the asynchronous scheduler's Look must
  be an outcome the driver considers possible for that node.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AlignAlgorithm, GatheringAlgorithm
from repro.algorithms.baselines import IdleAlgorithm
from repro.core.configuration import Configuration
from repro.scheduler.asynchronous import AsynchronousScheduler
from repro.scheduler.base import ActivationKind
from repro.scheduler.sequential import RoundRobinScheduler
from repro.scheduler.synchronous import SemiSynchronousScheduler, SynchronousScheduler
from repro.simulator.branching import IDLE, BranchingDriver
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions

CONFIGURATION = Configuration.from_occupied(9, (0, 1, 3, 6))

seeds = st.integers(min_value=0, max_value=10_000)


def _max_activation_gap(scheduler, steps=300):
    """Largest number of consecutive steps any robot sits unactivated."""
    engine = Simulator(IdleAlgorithm(), CONFIGURATION, scheduler=scheduler)
    last_seen = {r: 0 for r in range(engine.num_robots)}
    worst = 0
    for step in range(1, steps + 1):
        event = engine.step()
        for robot in event.robots:
            worst = max(worst, step - last_seen[robot])
            last_seen[robot] = step
    for robot, seen in last_seen.items():
        worst = max(worst, steps - seen)
    return worst


class TestBoundedFairness:
    def test_synchronous_window_is_one(self):
        assert _max_activation_gap(SynchronousScheduler()) == 1

    def test_round_robin_window_is_k(self):
        assert _max_activation_gap(RoundRobinScheduler()) == CONFIGURATION.k

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_semi_synchronous_window_bounded(self, seed):
        bound = 7
        scheduler = SemiSynchronousScheduler(seed=seed, fairness_bound=bound)
        # A robot is forced into the subset once its starvation counter
        # reaches the bound, so no gap can exceed bound + 1.
        assert _max_activation_gap(scheduler) <= bound + 1

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_asynchronous_window_bounded(self, seed):
        k = CONFIGURATION.k
        scheduler = AsynchronousScheduler(
            seed=seed, max_pending_age=5, fairness_bound=10
        )
        # Worst case: a robot starves to the bound, then waits behind up
        # to k - 1 other starving robots and k - 1 overdue moves (forced
        # releases preempt forced looks).
        assert _max_activation_gap(scheduler) <= 10 + 2 * k


class TestTransitionRelationConsistency:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_ssync_engine_steps_are_checker_transitions(self, seed):
        """Each SSYNC engine step appears in the branching relation."""
        driver = BranchingDriver(AlignAlgorithm(), CONFIGURATION.n)
        engine = Simulator(
            AlignAlgorithm(),
            CONFIGURATION,
            scheduler=SemiSynchronousScheduler(seed=seed, fairness_bound=5),
            options=EngineOptions(presentation_seed=seed),
        )
        for _ in range(40):
            before = engine.configuration.counts
            engine.step()
            after = engine.configuration.counts
            successors = {record[1] for record in driver.successors_compact(before)}
            assert after in successors

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_ssync_gathering_steps_are_checker_transitions(self, seed):
        initial = Configuration.from_occupied(9, (0, 2, 3, 6))
        driver = BranchingDriver(GatheringAlgorithm(), 9, multiplicity_detection=True)
        engine = Simulator(
            GatheringAlgorithm(),
            initial,
            scheduler=SemiSynchronousScheduler(seed=seed, fairness_bound=5),
            options=EngineOptions(exclusive=False, multiplicity_detection=True, presentation_seed=seed),
        )
        for _ in range(60):
            before = engine.configuration.counts
            engine.step()
            after = engine.configuration.counts
            successors = {record[1] for record in driver.successors_compact(before)}
            assert after in successors

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_async_looks_commit_checker_options(self, seed):
        """Every pending move committed at Look is a driver option."""
        n = CONFIGURATION.n
        driver = BranchingDriver(AlignAlgorithm(), n)
        engine = Simulator(
            AlignAlgorithm(),
            CONFIGURATION,
            scheduler=AsynchronousScheduler(seed=seed),
            options=EngineOptions(presentation_seed=seed),
        )
        for _ in range(60):
            before = engine.configuration.counts
            positions_before = engine.positions
            event = engine.step()
            if event.kind is not ActivationKind.LOOK:
                continue
            options = driver.node_options(before)
            for robot_id in event.robots:
                position = positions_before[robot_id]
                target = engine.robot(robot_id).pending_target
                if target is None:
                    assert IDLE in options[position]
                else:
                    direction = 1 if (target - position) % n == 1 else -1
                    assert direction in options[position]
