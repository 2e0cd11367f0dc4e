"""Tests for the branching adversary driver."""

import pytest

from repro.algorithms import AlignAlgorithm, GatheringAlgorithm, RingClearingAlgorithm
from repro.algorithms.baselines import IdleAlgorithm, SweepAlgorithm
from repro.core.configuration import Configuration
from repro.simulator.branching import (
    COMPACT_COLLISION,
    COMPACT_FULL,
    COMPACT_MOVED,
    IDLE,
    BranchingDriver,
    NodeActivation,
)


def profile_of(record):
    """The activation profile of one compact transition record."""
    return tuple(NodeActivation(node=v, idle=i, cw=c, ccw=w) for (v, i, c, w) in record[0])


class TestNodeOptions:
    def test_align_single_mover_deterministic(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        options = driver.node_options(counts)
        movers = {node: opts for node, opts in options.items() if opts != (IDLE,)}
        assert len(movers) == 1
        (node, opts), = movers.items()
        assert len(opts) == 1 and opts[0] in (-1, 1)

    def test_symmetric_views_expose_both_directions(self):
        # Two antipodal robots: each sees identical views, so the
        # adversary owns the direction of any move.
        driver = BranchingDriver(GatheringAlgorithm(), 6, multiplicity_detection=True)
        options = driver.node_options((1, 0, 0, 1, 0, 0))
        assert options == {0: (-1, 1), 3: (-1, 1)}

    def test_presentation_dependence_surfaces_idle_and_move(self):
        # Sweep moves iff the first presented view starts with a gap, so
        # a robot with one empty and one occupied neighbour can be driven
        # to idle or to move by choosing the presentation order.
        driver = BranchingDriver(SweepAlgorithm(), 5)
        options = driver.node_options((1, 1, 0, 0, 0))
        assert options[0] == (-1, 0) or options[0] == (0, 1)

    def test_idle_algorithm_only_idles(self):
        driver = BranchingDriver(IdleAlgorithm(), 6)
        options = driver.node_options((1, 0, 1, 0, 1, 0))
        assert all(opts == (IDLE,) for opts in options.values())

    @pytest.mark.parametrize(
        "algorithm,multiplicity",
        [
            (AlignAlgorithm(), False),
            (GatheringAlgorithm(), True),
            (SweepAlgorithm(), False),
            (RingClearingAlgorithm(), False),
        ],
    )
    def test_options_match_direct_snapshot_computation(self, algorithm, multiplicity):
        """The canonical-class mapping and the global-plan fast path must
        reproduce the exact per-snapshot option sets on every occupancy
        vector — including reflections (direction negation), gathering
        multiplicities and the presentation-dependent sweep baseline."""
        import itertools

        n, k = 7, 3
        fast = BranchingDriver(algorithm, n, multiplicity_detection=multiplicity)
        oracle = BranchingDriver(algorithm, n, multiplicity_detection=multiplicity)
        for support in itertools.combinations(range(n), k):
            counts = tuple(1 if v in support else 0 for v in range(n))
            try:
                expected = oracle._compute_options_snapshots(counts)
            except Exception as exc:  # noqa: BLE001 - mirror error below
                with pytest.raises(type(exc)):
                    fast.node_options(counts)
                continue
            assert fast.node_options(counts) == expected, counts
        if multiplicity:
            # A vector with a tower exercises the on_multiplicity flag.
            counts = (2, 0, 1, 0, 0, 0, 0)
            assert fast.node_options(counts) == oracle._compute_options_snapshots(counts)

    def test_plan_fast_path_falls_back_on_non_adjacent_target(self):
        """A planner prescribing a 2-hop move must surface the legacy
        AlgorithmPreconditionError — also for symmetric-view nodes, and
        also once the fast path's self-check budget is exhausted."""
        from repro.core.errors import AlgorithmPreconditionError
        from repro.model.algorithm import GlobalRuleAlgorithm

        class TwoHopPlanner(GlobalRuleAlgorithm):
            name = "two-hop"

            def plan(self, configuration):
                node = configuration.support[0]
                return {node: (node + 2) % configuration.n}

        driver = BranchingDriver(TwoHopPlanner(), 6)
        driver._plan_table._checks_left = 0  # exercise the unchecked fast path
        with pytest.raises(AlgorithmPreconditionError):
            # Antipodal robots: both views coincide, so the symmetric
            # branch is the one that must still validate adjacency.
            driver.node_options((1, 0, 0, 1, 0, 0))

    def test_compact_records_match_their_profiles(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        for mode in ("ssync", "sequential"):
            records = driver.successors_compact(counts, mode)
            assert records
            for record in records:
                parts, counts_after, traversed, activated, flags = record
                assert parts == tuple(sorted(parts))
                assert counts_after == driver.apply(counts, profile_of(record))
                assert bool(flags & COMPACT_MOVED) == any(c + w for (_, _, c, w) in parts)
                assert bool(flags & COMPACT_FULL) == (
                    sum(i + c + w for (_, i, c, w) in parts) == sum(counts)
                )
                assert bool(flags & COMPACT_COLLISION) == (max(counts_after) > 1)
                assert activated == sum(1 << v for (v, _, _, _) in parts)
                edges = 0
                for v, _, c, w in parts:
                    edges |= (1 << v if c else 0) | (1 << ((v - 1) % 9) if w else 0)
                assert traversed == edges


class TestSuccessors:
    def test_full_flag_requires_every_robot(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        records = driver.successors_compact(counts)
        full = [r for r in records if r[4] & COMPACT_FULL]
        assert len(full) == 1
        assert sum(a.activated for a in profile_of(full[0])) == sum(counts)

    def test_idle_self_loop_present(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        records = driver.successors_compact(counts)
        assert any(r[1] == counts and not r[4] & COMPACT_MOVED for r in records)

    def test_collision_flagged(self):
        # Two robots either side of one empty node, both driven into it.
        driver = BranchingDriver(SweepAlgorithm(), 5)
        records = driver.successors_compact((1, 0, 1, 0, 0))
        collisions = [r for r in records if r[4] & COMPACT_COLLISION]
        assert collisions
        assert all(max(r[1]) > 1 for r in collisions)

    def test_sequential_activates_single_robot(self):
        driver = BranchingDriver(GatheringAlgorithm(), 6, multiplicity_detection=True)
        for record in driver.successors_compact((1, 0, 0, 1, 0, 0), "sequential"):
            assert sum(a.activated for a in profile_of(record)) == 1

    def test_successor_counts_preserve_robots(self):
        # A C*-type support with a pile, as reached mid-contraction.
        driver = BranchingDriver(GatheringAlgorithm(), 7, multiplicity_detection=True)
        counts = (1, 2, 0, 1, 0, 0, 0)
        for record in driver.successors_compact(counts):
            assert sum(record[1]) == sum(counts)

    def test_unknown_mode_rejected(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.successors_compact((1, 0, 1, 0, 0), "async")

    def test_multiplicity_partial_activation(self):
        # Two robots piled on the contraction anchor of a C*-type
        # support: the adversary may release any subset of the pile.
        driver = BranchingDriver(GatheringAlgorithm(), 8, multiplicity_detection=True)
        counts = (2, 1, 0, 1, 0, 0, 0, 0)
        after = {r[1] for r in driver.successors_compact(counts)}
        assert (1, 2, 0, 1, 0, 0, 0, 0) in after  # one of the two moved
        assert (0, 3, 0, 1, 0, 0, 0, 0) in after  # both moved


class TestReplay:
    def test_replay_matches_successors(self):
        driver = BranchingDriver(AlignAlgorithm(), 9)
        counts = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        for record in driver.successors_compact(counts):
            assert driver.apply(counts, profile_of(record)) == record[1]

    def test_replay_rejects_unoccupied_node(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.apply((1, 0, 1, 0, 0), [NodeActivation(node=1, idle=1, cw=0, ccw=0)])

    def test_replay_rejects_overfull_activation(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.apply((1, 0, 1, 0, 0), [NodeActivation(node=0, idle=2, cw=0, ccw=0)])

    def test_replay_rejects_impossible_outcome(self):
        driver = BranchingDriver(IdleAlgorithm(), 5)
        with pytest.raises(ValueError):
            driver.apply((1, 0, 1, 0, 0), [NodeActivation(node=0, idle=0, cw=1, ccw=0)])

    def test_replay_trajectory(self):
        driver = BranchingDriver(GatheringAlgorithm(), 6, multiplicity_detection=True)
        counts = (1, 0, 0, 1, 0, 0)
        record = next(r for r in driver.successors_compact(counts) if r[4] & COMPACT_MOVED)
        trajectory = driver.replay(counts, [profile_of(record)])
        assert trajectory == [counts, record[1]]


class TestEngineConsistency:
    def test_options_match_engine_decisions(self):
        """The option sets cover what the engine actually computes.

        The engine presents views in a seeded-random order; over many
        seeds the executed decision of each robot must stay inside the
        driver's option set for its node.
        """
        from repro.simulator.engine import Simulator
        from repro.simulator.options import EngineOptions

        configuration = Configuration.from_occupied(9, (0, 1, 3, 6))
        driver = BranchingDriver(AlignAlgorithm(), 9)
        options = driver.node_options(configuration.counts)
        for seed in range(20):
            engine = Simulator(AlignAlgorithm(), configuration, options=EngineOptions(presentation_seed=seed))
            event = engine.step()
            for move in event.moves:
                direction = (move.target - move.source) % 9
                outcome = 1 if direction == 1 else -1
                assert outcome in options[move.source]
