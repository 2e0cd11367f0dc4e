"""Property tests guarding the incremental simulation core.

The engine maintains occupancy counts, a node-to-robots index, a pending
set and a versioned configuration cache incrementally; these tests pin
the invariant that after *any* activation sequence the incremental state
is indistinguishable from a from-scratch rebuild, and that the decision
cache never changes a trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.baselines import GreedyGatherBaseline, SweepAlgorithm
from repro.algorithms.gathering import GatheringAlgorithm
from repro.core.configuration import Configuration
from repro.scheduler import (
    AsynchronousScheduler,
    SequentialScheduler,
    SynchronousScheduler,
)
from repro.simulator.engine import Simulator

RIGID_START = Configuration.from_occupied(12, [0, 2, 5, 6, 9])


def make_scheduler(name, seed):
    if name == "sequential":
        return SequentialScheduler()
    if name == "synchronous":
        return SynchronousScheduler()
    return AsynchronousScheduler(seed=seed)


def assert_incremental_state_consistent(engine):
    """The incremental engine state must equal a from-scratch rebuild."""
    rebuilt = Configuration.from_positions(engine.ring_size, engine.positions)
    assert engine.configuration == rebuilt
    assert engine.configuration.counts == rebuilt.counts
    assert engine.configuration.gaps() == rebuilt.gaps()
    for node in range(engine.ring_size):
        expected = tuple(
            r.robot_id for r in engine.robots() if r.position == node
        )
        assert engine.robots_at(node) == expected
    assert engine.pending_robots() == tuple(
        r.robot_id for r in engine.robots() if r.has_pending_move
    )


class TestIncrementalStateEquivalence:
    @pytest.mark.parametrize("scheduler_name", ["sequential", "synchronous", "asynchronous"])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_long_run_matches_rebuild(self, scheduler_name, seed):
        engine = Simulator(
            AlignAlgorithm(),
            RIGID_START,
            scheduler=make_scheduler(scheduler_name, seed),
            presentation_seed=seed,
        )
        versions = [engine.state_version]
        for _ in range(80):
            engine.step()
            versions.append(engine.state_version)
        assert_incremental_state_consistent(engine)
        assert versions == sorted(versions)  # the state version is monotonic

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_multiplicities_tracked_through_gathering(self, seed):
        engine = Simulator(
            GatheringAlgorithm(),
            Configuration.from_occupied(11, [0, 1, 2, 3, 5]),
            scheduler=make_scheduler("asynchronous", seed),
            exclusive=False,
            multiplicity_detection=True,
            presentation_seed=seed,
        )
        for _ in range(60):
            engine.step()
        assert_incremental_state_consistent(engine)

    def test_state_checked_after_every_step(self):
        engine = Simulator(SweepAlgorithm(), Configuration.from_gaps((3,) * 5), chirality=True)
        for _ in range(50):
            engine.step()
            assert_incremental_state_consistent(engine)

    def test_initial_configuration_object_is_reused(self):
        cfg = Configuration.from_occupied(8, [0, 3, 5])
        engine = Simulator(AlignAlgorithm(), cfg)
        # Satellite: the validated initial configuration is the version-0
        # cache entry — the same object, not an equal rebuild.
        assert engine.configuration is cfg
        assert engine.state_version == 0

    def test_looks_share_one_configuration_object(self):
        engine = Simulator(AlignAlgorithm(), RIGID_START, scheduler=SynchronousScheduler())
        first = engine.configuration
        assert engine.configuration is first  # same version, same object
        engine.step()


def trace_fingerprint(trace):
    """Deterministic byte serialisation of everything a trace records."""
    parts = [repr(trace.initial_positions), repr(trace.initial_configuration.counts)]
    for event in trace.events:
        parts.append(
            repr(
                (
                    event.step,
                    event.kind.value,
                    event.robots,
                    tuple((m.robot_id, m.source, m.target) for m in event.moves),
                    event.configuration_after.counts,
                    event.collision,
                )
            )
        )
    return "\n".join(parts).encode()


#: Engine models the cache tests run under: the exclusive default (with
#: collisions recorded, not raised) and E5's greedy-baseline model.
CACHE_TEST_OPTIONS = {
    "exclusive": {"collision_policy": "record"},
    "baseline": {"exclusive": False, "multiplicity_detection": True},
}


class TestDecisionCache:
    @pytest.mark.parametrize("options_name", sorted(CACHE_TEST_OPTIONS))
    @pytest.mark.parametrize("scheduler_name", ["sequential", "synchronous", "asynchronous"])
    @pytest.mark.parametrize("algorithm_factory", [AlignAlgorithm, GreedyGatherBaseline])
    def test_cached_and_uncached_traces_byte_identical(
        self, scheduler_name, algorithm_factory, options_name
    ):
        """The decision cache and the Look table never change a trace.

        Covers the default bound, a bound of 2 (the Look table is cleared
        over and over) and no cache at all; the asynchronous scheduler
        splits LOOK and MOVE steps.
        """
        traces = []
        for cache_options in (
            {"decision_cache": True},
            {"decision_cache": True, "decision_cache_size": 2},
            {"decision_cache": False},
        ):
            engine = Simulator(
                algorithm_factory(),
                RIGID_START,
                scheduler=make_scheduler(scheduler_name, seed=7),
                presentation_seed=42,
                **CACHE_TEST_OPTIONS[options_name],
                **cache_options,
            )
            engine.run(120)
            traces.append(trace_fingerprint(engine.trace))
        assert traces[0] == traces[1] == traces[2]

    def test_cache_hits_on_repeated_views(self):
        engine = Simulator(
            SweepAlgorithm(), Configuration.from_gaps((4,) * 6), chirality=True
        )
        engine.run(60)
        cache = engine.decision_cache
        assert cache is not None
        assert cache.hits > 0
        assert cache.misses <= len(cache) + cache.maxsize

    def test_cache_disabled_means_no_cache(self):
        engine = Simulator(AlignAlgorithm(), RIGID_START, decision_cache=False)
        assert engine.decision_cache is None
        engine.run(10)

    def test_cache_eviction_is_bounded(self):
        from repro.model.algorithm import DecisionCache

        cache = DecisionCache(maxsize=2)
        engine = Simulator(SweepAlgorithm(), Configuration.from_gaps((4,) * 6), chirality=True)
        # Route the engine through the tiny cache to exercise eviction.
        engine._decision_cache = cache
        engine.run(40)
        assert len(cache) <= 2

    def test_invalid_cache_size_rejected(self):
        from repro.model.algorithm import DecisionCache

        with pytest.raises(ValueError):
            DecisionCache(maxsize=0)
