"""Theorem 6 and Theorem 7: Ring Clearing and NminusThree, machine-checked."""

import itertools

import pytest

from repro.algorithms.nminusthree import (
    NminusThreeAlgorithm,
    final_configurations,
    nminusthree_supported,
    plan_nminusthree,
)
from repro.algorithms.ring_clearing import (
    RingClearingAlgorithm,
    plan_ring_clearing,
    ring_clearing_supported,
)
from repro.core.configuration import Configuration
from repro.core.errors import UnsupportedParametersError
from repro.scheduler import AsynchronousScheduler
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.tasks import ExplorationMonitor, SearchingMonitor


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


def verify_perpetual(algorithm, cfg, steps, min_clear=2, min_visits=2, scheduler=None, seed=0):
    searching = SearchingMonitor()
    exploration = ExplorationMonitor()
    engine = Simulator(
        algorithm,
        cfg,
        scheduler=scheduler,
        monitors=[searching, exploration],
        options=EngineOptions(presentation_seed=seed),
    )
    engine.run(steps)
    assert not engine.trace.had_collision
    assert engine.trace.max_simultaneous_moves() == 1
    assert searching.every_edge_cleared(min_clear), searching.clearing_counts()
    assert exploration.all_robots_covered_ring(min_visits), exploration.visit_counts
    return searching, exploration


class TestRingClearingSupport:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (10, 5, False),  # open case
            (10, 6, True),
            (12, 5, True),
            (12, 8, True),
            (12, 9, False),  # k = n - 3 handled by NminusThree
            (9, 5, False),
            (12, 4, False),
            (20, 16, True),
        ],
    )
    def test_supported_range(self, n, k, expected):
        assert ring_clearing_supported(n, k) is expected

    def test_unsupported_raises(self):
        cfg = Configuration.from_occupied(10, [0, 1, 2, 4, 6])
        with pytest.raises(UnsupportedParametersError):
            plan_ring_clearing(cfg)

    def test_plan_single_mover(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9, 10])
        plan = plan_ring_clearing(cfg)
        assert len(plan) == 1
        (mover, target), = plan.items()
        assert cfg.is_occupied(mover)
        assert not cfg.is_occupied(target)


class TestTheorem6:
    """Ring Clearing perpetually searches and explores (exhaustive small cases)."""

    @pytest.mark.parametrize("n,k", [(11, 5), (11, 6), (12, 6), (12, 7), (13, 8)])
    def test_perpetual_search_and_exploration(self, n, k):
        assert ring_clearing_supported(n, k)
        # A couple of representative rigid starting configurations per (n, k).
        for cfg in rigid_configurations(n, k, limit=4):
            steps = 40 * n * k
            verify_perpetual(RingClearingAlgorithm(), cfg, steps)

    def test_exhaustive_single_pair(self):
        n, k = 11, 6
        for cfg in rigid_configurations(n, k):
            steps = 30 * n * k
            verify_perpetual(RingClearingAlgorithm(), cfg, steps, min_clear=1, min_visits=1)

    def test_whole_ring_simultaneously_clear_infinitely_often(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9, 10])
        searching = SearchingMonitor()
        engine = Simulator(RingClearingAlgorithm(), cfg, monitors=[searching])
        engine.run(4000)
        assert len(searching.all_clear_steps) >= 3

    def test_phase_two_cycles_up_to_symmetry(self):
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 4, 6])  # C* in A-f
        engine = Simulator(RingClearingAlgorithm(), cfg)
        engine.run(2000)
        assert engine.trace.configuration_period(up_to_symmetry=True) is not None

    @pytest.mark.parametrize("seed", [1, 2])
    def test_asynchronous_scheduler(self, seed):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9, 10])
        verify_perpetual(
            RingClearingAlgorithm(),
            cfg,
            steps=6000,
            scheduler=AsynchronousScheduler(seed=seed),
            seed=seed,
        )


class TestNminusThreeSupport:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(10, 7, True), (12, 9, True), (9, 6, False), (12, 8, False), (20, 17, True)],
    )
    def test_supported_range(self, n, k, expected):
        assert nminusthree_supported(n, k) is expected

    def test_unsupported_raises(self):
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 5, 6, 7, 9])
        with pytest.raises(UnsupportedParametersError):
            plan_nminusthree(cfg)

    def test_final_configurations(self):
        assert final_configurations(9) == ((0, 2, 7), (0, 3, 6), (1, 2, 6))

    def test_phase_two_cycle_of_block_sizes(self):
        """R2.1 -> R2.2 -> R2.3 cycles through the three final configurations (Theorem 7)."""
        n, k = 12, 9
        cfg = Configuration.from_occupied(n, [0, 1, 2, 3, 4, 5, 6, 9, 10])
        from repro.algorithms.classification import three_empty_structure

        assert three_empty_structure(cfg).sorted_sizes == (0, 2, 7)
        sizes_seen = []
        for _ in range(12):
            sizes_seen.append(three_empty_structure(cfg).sorted_sizes)
            plan = plan_nminusthree(cfg)
            (mover, target), = plan.items()
            cfg = cfg.move_robot(mover, target)
        assert set(sizes_seen) == set(final_configurations(k))


class TestTheorem7:
    """NminusThree perpetually searches and explores for k = n - 3, n >= 10."""

    @pytest.mark.parametrize("n", [10, 11, 12, 13])
    def test_perpetual_search_and_exploration(self, n):
        k = n - 3
        for cfg in rigid_configurations(n, k, limit=4):
            steps = 50 * n * k
            verify_perpetual(NminusThreeAlgorithm(), cfg, steps)

    def test_exhaustive_n_11(self):
        n, k = 11, 8
        for cfg in rigid_configurations(n, k):
            steps = 40 * n * k
            verify_perpetual(NminusThreeAlgorithm(), cfg, steps, min_clear=1, min_visits=1)

    def test_lemma9_phase_one_reaches_final_configuration(self):
        from repro.algorithms.classification import three_empty_structure

        n, k = 14, 11
        for cfg in rigid_configurations(n, k, limit=10):
            engine = Simulator(NminusThreeAlgorithm(), cfg)
            finals = set(final_configurations(k))
            engine.run_until(
                lambda sim: three_empty_structure(sim.configuration).sorted_sizes in finals,
                10 * n * k,
            )
            assert three_empty_structure(engine.configuration).sorted_sizes in finals
            # Every intermediate configuration stays exclusive and collision-free.
            assert not engine.trace.had_collision
