"""Unit tests for the class-plan table shared by the driver and the batched engine."""

import logging

import pytest

from repro.algorithms import AlignAlgorithm, GatheringAlgorithm, SweepAlgorithm
from repro.core.configuration import Configuration
from repro.core.cyclic import reflect, rotate
from repro.core.ring import CCW, CW
from repro.model import GlobalRuleAlgorithm
from repro.model.algorithm import DecisionCache
from repro.simulator.branching import BranchingDriver
from repro.simulator.classplan import SELF_CHECKS, ClassPlanTable, ConfigurationPool

#: The one exclusive class (n = 4..12) where Align moves a robot whose
#: two views coincide: node 5 sits on the configuration's axis.
AXIS_START = (1, 1, 1, 0, 0, 1, 0, 0)


def table_for(algorithm, n, **kwargs):
    return ClassPlanTable(
        algorithm, n, pool=ConfigurationPool(), decisions=DecisionCache(), **kwargs
    )


class CountingAlign(AlignAlgorithm):
    """Align counting the table's planner calls (still a pure global rule)."""

    def __init__(self):
        super().__init__()
        self.global_plan_calls = 0

    def global_plan(self, configuration):
        self.global_plan_calls += 1
        return super().global_plan(configuration)


class RiggedPlanner(GlobalRuleAlgorithm):
    """Adjacent-valid but rotation-variant: breaks the equivariance contract."""

    name = "rigged"

    def plan(self, configuration):
        # "The robot at the lowest-index occupied node moves clockwise" is
        # phrased in absolute coordinates, not views, so relabelling the
        # ring does not relabel the output the same way.
        mover = min(configuration.support)
        return {mover: (mover + 1) % configuration.n}


class NonAdjacentPlanner(GlobalRuleAlgorithm):
    """Planner that targets a non-adjacent node."""

    name = "teleporter"

    def plan(self, configuration):
        mover = min(configuration.support)
        return {mover: (mover + 3) % configuration.n}


class TestCanonicalSharing:
    COUNTS = Configuration.from_occupied(9, [0, 1, 3, 6]).counts

    def test_one_planner_call_per_class(self):
        algorithm = CountingAlign()
        table = table_for(algorithm, 9)
        for r in range(9):
            assert table.plan(rotate(self.COUNTS, r)) is not None
            assert table.plan(rotate(reflect(self.COUNTS), r)) is not None
        assert algorithm.global_plan_calls == 1
        assert table.enabled

    @pytest.mark.parametrize("seed_counts", [COUNTS, reflect(COUNTS)])
    def test_frame_mapped_plans_match_direct_plans(self, seed_counts):
        algorithm = AlignAlgorithm()
        table = table_for(algorithm, 9)
        for r in range(9):
            counts = rotate(seed_counts, r)
            direct = algorithm.planned_moves(Configuration.from_trusted_counts(counts))
            assert table.plan(counts) == direct

    def test_towers_share_their_support_class(self):
        algorithm = CountingAlign()
        table = table_for(algorithm, 9, multiplicity_detection=True)
        exclusive = Configuration.from_occupied(9, [0, 1, 3]).counts
        tower = (2,) + exclusive[1:]
        assert table.options(tower) == table.options(exclusive)
        assert algorithm.global_plan_calls == 1


class TestNoPlan:
    def test_non_global_rule_algorithm(self):
        table = table_for(SweepAlgorithm(), 9)
        assert not table.enabled
        assert table.plan(TestCanonicalSharing.COUNTS) is None
        assert table.options(TestCanonicalSharing.COUNTS) is None

    def test_gathering_endgame(self):
        table = table_for(GatheringAlgorithm(), 9, multiplicity_detection=True)
        assert table.plan((3, 0, 0, 1, 0, 0, 0, 0, 0)) is None
        assert table.plan((2, 1, 0, 1, 0, 0, 0, 0, 0)) is not None

    def test_non_adjacent_target(self):
        table = table_for(NonAdjacentPlanner(), 9)
        counts = Configuration.from_occupied(9, [1, 4, 6]).counts
        assert table.plan(counts) is None
        assert table.options(counts) is None
        assert table.enabled

    def test_mover_with_coinciding_views(self):
        """Only the options say "either direction"; no plan can."""
        configuration = Configuration(AXIS_START)
        cw_view, ccw_view = configuration.views_of(5)
        assert cw_view == ccw_view
        assert 5 in AlignAlgorithm().planned_moves(configuration)
        for r in range(8):
            for counts in (rotate(AXIS_START, r), rotate(reflect(AXIS_START), r)):
                table = table_for(AlignAlgorithm(), 8)
                assert table.plan(counts) is None
                options = table.options(counts)
                axis = next(v for v, opts in options.items() if opts == (CCW, CW))
                assert [opts for opts in options.values() if len(opts) > 1] == [(CCW, CW)]
                assert table.enabled, counts
                driver = BranchingDriver(AlignAlgorithm(), 8)
                assert driver.node_options(counts)[axis] == (CCW, CW)
                assert driver.node_options(counts) == driver._compute_options_snapshots(counts)


class TestSelfCheck:
    def test_equivariant_planner_passes(self, caplog):
        table = table_for(AlignAlgorithm(), 9)
        with caplog.at_level(logging.WARNING, logger="repro.simulator.classplan"):
            for r in range(9):
                table.plan(rotate(TestCanonicalSharing.COUNTS, r))
        assert table.enabled
        assert not caplog.records

    def test_violation_turns_the_table_off_with_one_warning(self, caplog):
        table = table_for(RiggedPlanner(), 9)
        counts = Configuration.from_occupied(9, [2, 3, 5]).counts
        with caplog.at_level(logging.WARNING, logger="repro.simulator.classplan"):
            for r in range(9):
                assert table.plan(rotate(counts, r)) is None
                assert table.plan(rotate(reflect(counts), r)) is None
        assert not table.enabled
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "rigged" in message and "n=9" in message and f"counts={counts}" in message

    def test_budget_counts_planned_classes(self):
        from repro.analysis.enumeration import iter_configurations

        table = table_for(AlignAlgorithm(), 12)
        classes = [cfg.counts for cfg in iter_configurations(12, 5, rigid_only=True)]
        for number, counts in enumerate(classes[: SELF_CHECKS + 2], start=1):
            table.plan(counts)
            assert table._checks_left == max(0, SELF_CHECKS - number)
