"""Tests for the adversary game solver and the metrics helpers."""

import pytest

from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.ring_clearing import RingClearingAlgorithm
from repro.analysis.enumeration import enumerate_configurations
from repro.analysis.game import (
    GameVerdict,
    Option,
    SearchGameSolver,
    searching_game_verdict,
)
from repro.analysis.metrics import clearing_metrics, convergence_metrics, summarize
from repro.core.configuration import Configuration
from repro.core.errors import UnsupportedParametersError
from repro.simulator.engine import Simulator
from repro.tasks import ExplorationMonitor, SearchingMonitor
from repro.workloads.generators import rigid_configurations


class TestGameSolverSetup:
    def test_rejects_bad_parameters(self):
        with pytest.raises(UnsupportedParametersError):
            SearchGameSolver(6, 6)
        with pytest.raises(UnsupportedParametersError):
            SearchGameSolver(6, 0)

    def test_rejects_too_many_classes(self):
        with pytest.raises(UnsupportedParametersError):
            SearchGameSolver(12, 6, max_classes=4)

    def test_observation_classes_and_candidates(self):
        solver = SearchGameSolver(5, 2)
        assert len(solver.observation_classes) == 2  # distances 1 and 2
        assert solver.candidate_count() == 9

    def test_observation_class_is_unordered(self):
        cfg = Configuration.from_occupied(6, [0, 2])
        first, second = SearchGameSolver.observation_class(cfg, 0)
        assert first <= second


class TestGameComboReplay:
    """Replaying shared combo tables must be invisible in every observable."""

    CELLS = ((4, 1), (5, 2), (6, 2), (5, 3), (6, 3))

    def test_cold_and_warm_sweeps_identical(self):
        cold = [SearchGameSolver(n, k).solve() for n, k in self.CELLS]
        warm = [searching_game_verdict(n, k) for n, k in self.CELLS]
        assert cold == warm
        assert [r.verdict for r in cold] == [GameVerdict.IMPOSSIBLE] * len(self.CELLS)
        assert [r.algorithms_checked for r in cold] == [2, 9, 18, 36, 324]

    def test_cap_error_is_raised(self):
        from repro.core.errors import SimulationLimitError

        with pytest.raises(SimulationLimitError) as excinfo:
            searching_game_verdict(6, 3, max_states=10)
        assert str(excinfo.value) == "game state space exceeded 10 states"

    def test_combo_tables_shared_across_candidates(self):
        solver = SearchGameSolver(6, 2)
        solver.solve()
        # Far fewer distinct tables than (states x candidates) expansions.
        assert 0 < len(solver._combo_tables) <= 200


class TestGameSolverVerdicts:
    """Computational counterparts of Theorems 2, 3 and the small cases of Theorem 5."""

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 1)])
    def test_single_robot_impossible(self, n, k):
        assert searching_game_verdict(n, k).verdict is GameVerdict.IMPOSSIBLE

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 2)])
    def test_two_robots_impossible(self, n, k):
        assert searching_game_verdict(n, k).verdict is GameVerdict.IMPOSSIBLE

    def test_three_robots_small_ring_impossible(self):
        assert searching_game_verdict(5, 3).verdict is GameVerdict.IMPOSSIBLE

    def test_result_counts_candidates(self):
        result = searching_game_verdict(5, 2)
        assert result.algorithms_checked == 9
        assert result.witness is None

    def test_specific_candidate_is_defeated(self):
        """The 'always move towards the other robot's far side' candidate loses."""
        solver = SearchGameSolver(6, 2)
        assignment = {cls: Option.TOWARD_MAX for cls in solver.observation_classes}
        start = Configuration.from_occupied(6, [0, 1])
        assert solver._adversary_wins(start, assignment)

    def test_idle_candidate_is_defeated(self):
        solver = SearchGameSolver(6, 2)
        assignment = {cls: Option.IDLE for cls in solver.observation_classes}
        start = Configuration.from_occupied(6, [0, 1])
        assert solver._adversary_wins(start, assignment)


class TestFairTrapRule:
    """The adversary's fairness rule: a trap's steps together activate every robot."""

    A, B = 1, 2

    def test_alternating_partial_activations_form_a_trap(self):
        # Robot 0 acts on A -> B and robot 1 on B -> A: no single step
        # activates both, yet cycling forever activates each infinitely often.
        edges = {self.A: [(self.B, 0b01)], self.B: [(self.A, 0b10)]}
        assert SearchGameSolver._fair_trap_exists({self.A, self.B}, edges, 0b11)

    def test_loop_never_activating_a_robot_is_not_a_trap(self):
        edges = {self.A: [(self.B, 0b01)], self.B: [(self.A, 0b01)]}
        assert not SearchGameSolver._fair_trap_exists({self.A, self.B}, edges, 0b11)

    def test_alternating_loops_defeat_e6_candidate(self):
        # Under a full-activation-step rule this (n=5, k=3) table survives
        # and the E6 row (3, 5) would read candidate-found.
        solver = SearchGameSolver(5, 3)
        assignment = {
            ((0, 0, 2), (2, 0, 0)): Option.IDLE,
            ((0, 1, 1), (1, 1, 0)): Option.TOWARD_MAX,
            ((0, 2, 0), (0, 2, 0)): Option.IDLE,
            ((1, 0, 1), (1, 0, 1)): Option.IDLE,
        }
        assert set(assignment) == set(solver.observation_classes)
        for start in enumerate_configurations(5, 3):
            assert solver._adversary_wins(start, assignment), start


class TestMetrics:
    def test_summarize_empty(self):
        assert summarize([]) == {"mean": 0.0, "min": 0.0, "max": 0.0, "stdev": 0.0}

    def test_summarize_values(self):
        stats = summarize([2, 4, 6])
        assert stats["mean"] == 4
        assert stats["min"] == 2
        assert stats["max"] == 6

    def test_convergence_metrics_from_align_run(self):
        cfg = rigid_configurations(11, 5)[0]
        engine = Simulator(AlignAlgorithm(), cfg)
        trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), 2000)
        metrics = convergence_metrics(trace)
        assert metrics.reached
        assert metrics.moves == trace.total_moves
        assert sum(metrics.moves_per_robot.values()) == metrics.moves

    def test_convergence_metrics_with_goal_predicate(self):
        cfg = rigid_configurations(11, 5)[0]
        engine = Simulator(AlignAlgorithm(), cfg)
        engine.run(300)
        metrics = convergence_metrics(engine.trace, goal=lambda c: c.is_c_star())
        assert metrics.reached
        assert metrics.moves <= engine.trace.total_moves

    def test_convergence_metrics_goal_not_reached(self):
        cfg = rigid_configurations(11, 5)[0]
        engine = Simulator(AlignAlgorithm(), cfg)
        engine.run(3)
        metrics = convergence_metrics(engine.trace, goal=lambda c: c.num_occupied == 1)
        assert not metrics.reached

    def test_clearing_metrics(self):
        cfg = rigid_configurations(12, 6)[0]
        searching = SearchingMonitor()
        exploration = ExplorationMonitor()
        engine = Simulator(RingClearingAlgorithm(), cfg, monitors=[searching, exploration])
        engine.run(2500)
        metrics = clearing_metrics(searching, exploration)
        assert metrics.min_clearings > 0
        assert metrics.mean_clearings >= metrics.min_clearings
        assert metrics.all_clear_count >= 2
        assert metrics.moves_to_full_clear is not None and metrics.moves_to_full_clear > 0
        assert metrics.cover_time >= 0
        assert metrics.min_visits >= 1
