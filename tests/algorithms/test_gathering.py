"""Theorem 8: the Gathering algorithm with local multiplicity detection."""

import itertools

import pytest

from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.baselines import GreedyGatherBaseline
from repro.algorithms.gathering import (
    GatheringAlgorithm,
    gathering_supported,
    plan_gathering_support,
)
from repro.core.configuration import Configuration
from repro.core.errors import AlgorithmPreconditionError
from repro.scheduler import AsynchronousScheduler, SemiSynchronousScheduler
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.simulator.runner import run_gathering
from repro.tasks import GatheringMonitor


def rigid_configurations(n, k, limit=None):
    seen = set()
    result = []
    for occupied in itertools.combinations(range(n), k):
        cfg = Configuration.from_occupied(n, occupied)
        key = cfg.canonical_gaps()
        if key in seen:
            continue
        seen.add(key)
        if cfg.is_rigid:
            result.append(cfg)
            if limit is not None and len(result) >= limit:
                break
    return result


class TestSupport:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(10, 3, True), (10, 7, True), (10, 8, False), (10, 2, False), (6, 3, True), (5, 3, False)],
    )
    def test_supported_range(self, n, k, expected):
        assert gathering_supported(n, k) is expected


class TestSupportLevelPlan:
    def test_contraction_on_c_star(self):
        cfg = Configuration.from_occupied(10, [0, 1, 2, 3, 5])
        plan = plan_gathering_support(cfg)
        assert plan == {0: 1}

    def test_contraction_on_c_star_type_with_multiplicity(self):
        cfg = Configuration.from_positions(10, [1, 1, 2, 3, 5])
        plan = plan_gathering_support(cfg)
        assert plan == {1: 2}

    def test_align_outside_c_star_type(self):
        cfg = Configuration.from_occupied(10, [0, 1, 3, 6])
        plan = plan_gathering_support(cfg)
        assert len(plan) == 1

    def test_two_nodes_requires_snapshot(self):
        cfg = Configuration.from_positions(10, [0, 0, 0, 2])
        with pytest.raises(AlgorithmPreconditionError):
            plan_gathering_support(cfg)


class TestTheorem8Exhaustive:
    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_gathering_from_every_rigid_configuration(self, n):
        for k in range(3, n - 2):
            for cfg in rigid_configurations(n, k):
                monitor = GatheringMonitor()
                trace, engine = run_gathering(GatheringAlgorithm(), cfg, monitors=[monitor])
                assert monitor.gathering_achieved
                final = trace.final_configuration
                assert final.num_occupied == 1
                assert final.k == k
                # Once gathered, every robot stays put.
                engine.run(3 * k)
                assert engine.configuration.num_occupied == 1

    def test_gathering_moves_bounded(self):
        n = 12
        for k in range(3, n - 2):
            for cfg in rigid_configurations(n, k, limit=6):
                trace, _ = run_gathering(GatheringAlgorithm(), cfg)
                assert trace.total_moves <= 3 * n * k

    def test_multiplicity_only_appears_in_contraction_phase(self):
        cfg = Configuration.from_occupied(13, [0, 1, 4, 6, 10])
        monitor = GatheringMonitor()
        trace, _ = run_gathering(GatheringAlgorithm(), cfg, monitors=[monitor])
        first_c_star = trace.first_step_where(lambda c: c.is_c_star_type() and not c.is_exclusive)
        for event in trace.events:
            if event.step < (first_c_star or 0):
                assert event.configuration_after.is_exclusive or event.configuration_after.is_c_star_type()


class TestGatheringUnderAdversarialSchedulers:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_semi_synchronous(self, seed):
        cfg = Configuration.from_occupied(12, [0, 1, 4, 6, 9])
        assert cfg.is_rigid
        trace, _ = run_gathering(
            GatheringAlgorithm(),
            cfg,
            scheduler=SemiSynchronousScheduler(seed=seed),
            max_steps=20000,
        )
        assert trace.final_configuration.num_occupied == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fully_asynchronous(self, seed):
        cfg = Configuration.from_occupied(12, [0, 1, 4, 6, 9])
        trace, _ = run_gathering(
            GatheringAlgorithm(),
            cfg,
            scheduler=AsynchronousScheduler(seed=seed),
            max_steps=30000,
        )
        assert trace.final_configuration.num_occupied == 1


class TestBaselineComparison:
    def test_greedy_baseline_fails_where_gathering_succeeds(self):
        """The strawman rule does not gather from every rigid configuration."""
        failures = 0
        successes = 0
        for cfg in rigid_configurations(10, 4):
            engine = Simulator(
                GreedyGatherBaseline(),
                cfg,
                options=EngineOptions(exclusive=False, multiplicity_detection=True, presentation_seed=0),
            )
            engine.run(600)
            if engine.configuration.num_occupied == 1:
                successes += 1
            else:
                failures += 1
        assert failures > 0

    def test_align_algorithm_alone_does_not_gather(self):
        cfg = Configuration.from_occupied(10, [0, 1, 3, 6])
        engine = Simulator(AlignAlgorithm(), cfg)
        engine.run(400)
        assert engine.configuration.num_occupied == 4
