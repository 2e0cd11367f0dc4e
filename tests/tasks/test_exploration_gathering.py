"""Unit tests for the exploration and gathering monitors (and the composite)."""

from repro.core.configuration import Configuration
from repro.algorithms.baselines import IdleAlgorithm, SweepAlgorithm
from repro.algorithms.gathering import GatheringAlgorithm
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.simulator.runner import run_gathering
from repro.tasks import CompositeMonitor, ExplorationMonitor, GatheringMonitor


class TestExplorationMonitor:
    def test_initial_positions_count_as_visits(self):
        cfg = Configuration.from_occupied(8, [0, 3])
        monitor = ExplorationMonitor()
        Simulator(IdleAlgorithm(), cfg, monitors=[monitor])
        assert monitor.visit_counts[0][0] == 1
        assert monitor.visit_counts[1][3] == 1
        assert monitor.coverage_fraction() == 2 / 16

    def test_idle_never_covers(self):
        cfg = Configuration.from_occupied(8, [0, 3])
        monitor = ExplorationMonitor()
        engine = Simulator(IdleAlgorithm(), cfg, monitors=[monitor])
        engine.run(30)
        assert not monitor.all_robots_covered_ring()
        assert monitor.cover_time() == -1
        assert monitor.min_visits() == 0

    def test_sweep_with_chirality_perpetually_explores(self):
        """The paper's example: a unidirectional sweep explores but never clears."""
        cfg = Configuration.from_occupied(8, [0, 3])
        monitor = ExplorationMonitor()
        engine = Simulator(SweepAlgorithm(), cfg, monitors=[monitor], options=EngineOptions(chirality=True))
        engine.run(200)
        assert monitor.all_robots_covered_ring(minimum=3)
        assert monitor.robot_covered_ring(0, minimum=3)
        assert monitor.cover_time() >= 0
        assert set(monitor.nodes_visited_by(0)) == set(range(8))

    def test_visit_steps_are_increasing(self):
        cfg = Configuration.from_occupied(8, [0, 3])
        monitor = ExplorationMonitor()
        engine = Simulator(SweepAlgorithm(), cfg, monitors=[monitor], options=EngineOptions(chirality=True))
        engine.run(100)
        for robot in range(2):
            for node, steps in monitor.visit_steps[robot].items():
                assert steps == sorted(steps)


class TestGatheringMonitor:
    def test_reports_gathering(self):
        cfg = Configuration.from_occupied(10, [0, 1, 3, 6])
        assert cfg.is_rigid
        monitor = GatheringMonitor()
        trace, engine = run_gathering(GatheringAlgorithm(), cfg, monitors=[monitor])
        assert monitor.gathering_achieved
        assert monitor.is_gathered
        assert monitor.gathered_at_step is not None
        assert monitor.max_multiplicity_seen == 4
        assert not monitor.broke_apart_after_gathering
        assert monitor.occupied_nodes_monotone_after(0)

    def test_not_gathered_with_idle(self):
        cfg = Configuration.from_occupied(10, [0, 1, 3, 6])
        monitor = GatheringMonitor()
        engine = Simulator(IdleAlgorithm(), cfg, monitors=[monitor])
        engine.run(20)
        assert not monitor.is_gathered
        assert monitor.gathered_at_step is None

    def test_gathered_at_start(self):
        monitor = GatheringMonitor()
        Simulator(
            IdleAlgorithm(),
            [4, 4, 4],
            ring_size=9,
            options=EngineOptions(exclusive=False, multiplicity_detection=True),
            monitors=[monitor],
        )
        assert monitor.gathered_at_step == -1
        assert monitor.is_gathered


class TestCompositeMonitor:
    def test_composite_forwards_callbacks(self):
        cfg = Configuration.from_occupied(8, [0, 3])
        exploration = ExplorationMonitor()
        gathering = GatheringMonitor()
        composite = CompositeMonitor([exploration, gathering])
        engine = Simulator(SweepAlgorithm(), cfg, monitors=[composite], options=EngineOptions(chirality=True))
        engine.run(50)
        assert composite.monitors == [exploration, gathering]
        assert exploration.coverage_fraction() > 0.5
        assert gathering.occupied_history
