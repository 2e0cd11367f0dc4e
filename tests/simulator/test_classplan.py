"""Unit tests for the class-plan table shared by the driver and the batched engine."""

import logging
import random
import sys
import threading

import pytest

import repro.simulator.classplan as classplan_module
from repro.algorithms import (
    AlignAlgorithm,
    GatheringAlgorithm,
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.algorithms.baselines import GreedyGatherBaseline
from repro.analysis.enumeration import iter_configurations
from repro.batchsim import BatchEngine
from repro.core.configuration import Configuration
from repro.core.cyclic import reflect, rotate
from repro.core.ring import CCW, CW
from repro.model import GlobalRuleAlgorithm
from repro.model.algorithm import DecisionCache
from repro.runs.spec import make_algorithm
from repro.simulator.branching import BranchingDriver
from repro.simulator.classplan import (
    SELF_CHECKS,
    ClassPlanTable,
    plan_table,
    snapshot_options,
)
from repro.workloads.generators import random_rigid_configuration

#: The one exclusive class (n = 4..12) where Align moves a robot whose
#: two views coincide: node 5 sits on the configuration's axis.
AXIS_START = (1, 1, 1, 0, 0, 1, 0, 0)


def table_for(algorithm, n, **kwargs):
    """A fresh table, outside the process-wide registry."""
    return ClassPlanTable(algorithm, n, **kwargs)


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
                assert driver.node_options(counts) == snapshot_options(
                    AlignAlgorithm(), DecisionCache(), Configuration(counts), False
                )


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
        table = table_for(AlignAlgorithm(), 12)
        classes = [cfg.counts for cfg in iter_configurations(12, 5, rigid_only=True)]
        for number, counts in enumerate(classes[: SELF_CHECKS + 2], start=1):
            table.plan(counts)
            assert table._checks_left == max(0, SELF_CHECKS - number)


class AlignOrIdle(AlignAlgorithm):
    """Align, or nobody ever moves: a parameterised global rule."""

    def __init__(self, idle):
        super().__init__()
        self.idle = idle

    def plan(self, configuration):
        return {} if self.idle else super().plan(configuration)


class TestRegistryIdentity:
    COUNTS = Configuration.from_occupied(12, [0, 1, 3, 7, 8]).counts

    def test_attribute_free_instances_share_one_table(self):
        table = plan_table(make_algorithm("align"), 12)
        assert plan_table(make_algorithm("align"), 12) is table
        assert plan_table(AlignAlgorithm(), 13) is not table
        assert plan_table(AlignAlgorithm(), 12, True) is not table
        assert plan_table(RingClearingAlgorithm(), 12) is not table

    def test_parameterised_instances_get_a_table_each(self):
        moving, idle = AlignOrIdle(False), AlignOrIdle(True)
        moving_table, idle_table = plan_table(moving, 12), plan_table(idle, 12)
        assert moving_table is not idle_table
        assert plan_table(moving, 12) is moving_table
        assert (moving_table.algorithm, idle_table.algorithm) == (moving, idle)
        assert moving_table.plan(self.COUNTS)
        assert idle_table.plan(self.COUNTS) == {}


    @pytest.mark.parametrize("algorithm_type", [SweepAlgorithm, GreedyGatherBaseline])
    def test_algorithms_that_cannot_plan_stay_out(self, algorithm_type, fresh_plan_tables):
        starts = [random_rigid_configuration(12, 5, random.Random(seed)) for seed in range(2)]
        BatchEngine(algorithm_type(), starts)
        BatchEngine(algorithm_type(), starts[:1])
        driver = BranchingDriver(algorithm_type(), 12)
        assert classplan_module._PLAN_TABLES == {}
        assert not driver._plan_table.enabled
        assert plan_table(algorithm_type(), 12) is not plan_table(algorithm_type(), 12)


class TestRegistryThreads:
    def test_two_threads_plan_one_fresh_table(self, monkeypatch, fresh_plan_tables):
        """Both threads walk the classes in one order, so they race for each."""
        classes = [cfg.counts for cfg in iter_configurations(12, 5, rigid_only=True)]
        expected = [table_for(AlignAlgorithm(), 12).plan(counts) for counts in classes]
        planned, checks = [], []

        class CountingAlign(AlignAlgorithm):
            def global_plan(self, configuration):
                planned.append(configuration.counts)
                return super().global_plan(configuration)

        self_check = ClassPlanTable._self_check

        def counting_self_check(table, *args):
            checks.append(args[0])
            return self_check(table, *args)

        monkeypatch.setattr(ClassPlanTable, "_self_check", counting_self_check)
        table = plan_table(CountingAlign(), 12)
        barrier = threading.Barrier(2)
        results, errors = [], []

        def plan_all():
            try:
                barrier.wait()
                results.append([table.plan(counts) for counts in classes])
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=plan_all) for _ in range(2)]
        # Switch threads as often as the interpreter allows, so planning
        # and lookups interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert results == [expected, expected]
        assert 0 < len(checks) <= SELF_CHECKS
        # One planner call per class: no class is planned by both threads.
        assert len(planned) == len(set(planned)) == len(classes)
        assert table.enabled


class TestRegistryBounds:
    def test_bounds_of_one_evict_and_keep_traces(self, monkeypatch, fresh_plan_tables):
        starts = [random_rigid_configuration(12, 5, random.Random(seed)) for seed in range(3)]
        vectors = [cfg.counts for cfg in iter_configurations(12, 5, rigid_only=True)][:20]

        def outcome():
            engine = BatchEngine(AlignAlgorithm(), starts)
            engine.run(300)
            driver = BranchingDriver(RingClearingAlgorithm(), 12)
            return (
                [engine.lane_trace(i).canonical_bytes() for i in range(len(starts))],
                [driver.successors_compact(counts) for counts in vectors],
            )

        expected = outcome()
        fresh_plan_tables()
        monkeypatch.setattr(classplan_module, "_PLAN_TABLE_LIMIT", 1)
        monkeypatch.setattr(classplan_module, "_PLAN_CLASS_LIMIT", 1)
        assert outcome() == expected
        tables = classplan_module._PLAN_TABLES
        (ring_clearing,) = tables.values()
        assert isinstance(ring_clearing.algorithm, RingClearingAlgorithm)
        assert len(ring_clearing._classes) == 1
        align = plan_table(AlignAlgorithm(), 12)
        assert list(tables.values()) == [align]
        assert plan_table(RingClearingAlgorithm(), 12) is not ring_clearing
