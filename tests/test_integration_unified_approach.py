"""End-to-end integration tests: the unified approach as a whole.

These tests exercise the public package API the way a downstream user
would (imports from ``repro`` directly), and check the paper's central
claim: the *same* first phase (Align, reaching C*) feeds all three tasks.
"""

import pytest

import repro
from repro import (
    AlignAlgorithm,
    Configuration,
    EngineOptions,
    GatheringAlgorithm,
    NminusThreeAlgorithm,
    RingClearingAlgorithm,
    Simulator,
)
from repro.analysis.feasibility import Feasibility, searching_feasibility
from repro.simulator import run_gathering
from repro.tasks import ExplorationMonitor, GatheringMonitor, SearchingMonitor


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_snippet(self):
        start = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
        assert start.is_rigid
        engine = Simulator(AlignAlgorithm(), start)
        trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), 500)
        assert trace.final_configuration.is_c_star()


def _rigid_start(n: int, k: int, index: int = 0) -> Configuration:
    from repro.workloads.generators import rigid_configurations

    return rigid_configurations(n, k)[index]


class TestUnifiedApproach:
    """One rigid start, three tasks, one common first phase."""

    START = _rigid_start(13, 6, index=5)

    def test_start_is_rigid(self):
        assert self.START.is_rigid

    def test_phase_one_is_shared(self):
        """Ring Clearing and Gathering behave exactly like Align until C*-type configurations."""
        align = Simulator(AlignAlgorithm(), self.START, options=EngineOptions(presentation_seed=5))
        clearing = Simulator(RingClearingAlgorithm(), self.START, options=EngineOptions(presentation_seed=5))
        for _ in range(200):
            align.step()
            clearing.step()
            if align.configuration.is_c_star():
                break
            # Before any A-class configuration is reached the two algorithms
            # perform identical moves (the classifier falls back to Align).
            from repro.algorithms.classification import classify_a

            if classify_a(align.configuration) is None:
                assert align.configuration == clearing.configuration

    def test_searching_and_exploration_from_the_start(self):
        searching = SearchingMonitor()
        exploration = ExplorationMonitor()
        engine = Simulator(
            RingClearingAlgorithm(), self.START, monitors=[searching, exploration]
        )
        engine.run(30 * 13 * 6)
        assert searching.every_edge_cleared(2)
        assert exploration.all_robots_covered_ring(2)
        assert not engine.trace.had_collision

    def test_gathering_from_the_same_start(self):
        monitor = GatheringMonitor()
        trace, _ = run_gathering(GatheringAlgorithm(), self.START, monitors=[monitor])
        assert monitor.gathering_achieved
        assert trace.final_configuration.k == 6

    def test_feasibility_table_agrees_with_what_we_just_did(self):
        assert searching_feasibility(13, 6).verdict is Feasibility.FEASIBLE


class TestNminusThreeEndToEnd:
    def test_large_team_patrol(self):
        n = 14
        start = _rigid_start(n, n - 3)
        assert start.k == n - 3
        assert start.is_rigid
        searching = SearchingMonitor()
        engine = Simulator(NminusThreeAlgorithm(), start, monitors=[searching])
        engine.run(35 * n * (n - 3))
        assert searching.every_edge_cleared(2)


class TestCrossTaskConsistency:
    @pytest.mark.parametrize("n,k", [(11, 5), (12, 6)])
    def test_c_star_is_the_bridge_configuration(self, n, k):
        """C* is simultaneously Align's target, an A-f configuration, and C*-type."""
        from repro.algorithms.classification import AClass, classify_a

        c_star = Configuration.from_gaps((0,) * (k - 2) + (1, n - k - 1))
        assert c_star.is_c_star()
        assert c_star.is_c_star_type()
        classification = classify_a(c_star)
        assert classification is not None and classification.label == AClass.A_F
        from repro.algorithms.align import plan_align

        assert plan_align(c_star) == {}
