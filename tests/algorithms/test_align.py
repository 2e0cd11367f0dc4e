"""Tests of Algorithm Align: unit, property and exhaustive Theorem 1 checks."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.align import (
    CS_VIEW,
    SPECIAL_SYMMETRIC_VIEW,
    AlignAlgorithm,
    align_rule,
    plan_align,
)
from repro.core.configuration import Configuration
from repro.core.errors import AlgorithmPreconditionError
from repro.scheduler import AsynchronousScheduler, SemiSynchronousScheduler
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions


def rigid_configurations(n, k):
    """All rigid exclusive configurations with k robots on n nodes, up to isomorphism."""
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
    return result


@st.composite
def random_rigid_configuration(draw, min_n=8, max_n=24):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    k = draw(st.integers(min_value=3, max_value=n - 3))
    occupied = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k, unique=True)
    )
    cfg = Configuration.from_occupied(n, occupied)
    if not cfg.is_rigid:
        # Nudge towards rigid configurations by rejecting; hypothesis will retry.
        from hypothesis import assume

        assume(False)
    return cfg


class TestAlignRule:
    def test_idle_on_c_star(self):
        cfg = Configuration.from_occupied(10, [0, 1, 2, 3, 5])
        decision = align_rule(cfg)
        assert decision.is_idle
        assert plan_align(cfg) == {}

    def test_reduction0_applied_when_q0_positive(self):
        cfg = Configuration.from_gaps((1, 2, 3))  # supermin view (1, 2, 3)
        decision = align_rule(cfg)
        assert decision.rule == "reduction0"
        assert decision.resulting_view == (0, 2, 4)

    def test_reduction1_applied_when_safe(self):
        cfg = Configuration.from_gaps((0, 2, 1, 2, 2))
        decision = align_rule(cfg)
        assert decision.rule == "reduction1"

    def test_moves_are_adjacent(self):
        cfg = Configuration.from_gaps((0, 2, 1, 2, 2))
        decision = align_rule(cfg)
        assert cfg.ring.are_adjacent(decision.mover, decision.target)
        assert not cfg.is_occupied(decision.target)

    def test_cs_configuration_uses_reduction1_despite_symmetry(self):
        cs = Configuration.from_gaps(CS_VIEW)
        decision = align_rule(cs)
        assert decision.rule == "reduction1"
        after = cs.move_robot(decision.mover, decision.target)
        assert after.supermin_view() == SPECIAL_SYMMETRIC_VIEW
        assert after.is_symmetric

    def test_special_symmetric_configuration_handled(self):
        cfg = Configuration.from_gaps(SPECIAL_SYMMETRIC_VIEW)
        assert not cfg.is_rigid
        decision = align_rule(cfg)
        after = cfg.move_robot(decision.mover, decision.target)
        assert after.is_c_star()

    def test_rejects_symmetric_configuration(self):
        cfg = Configuration.from_occupied(8, [0, 2, 4, 6])
        with pytest.raises(AlgorithmPreconditionError):
            align_rule(cfg)

    def test_rejects_tiny_configurations(self):
        cfg = Configuration.from_occupied(8, [0, 3])
        with pytest.raises(AlgorithmPreconditionError):
            align_rule(cfg)

    def test_lemma2_reduction0_preserves_rigidity(self):
        """Lemma 2: reduction0 from a rigid configuration stays rigid and decreases the supermin."""
        for n, k in ((11, 4), (13, 5)):
            for cfg in rigid_configurations(n, k):
                if cfg.supermin_view()[0] == 0:
                    continue
                decision = align_rule(cfg)
                after = cfg.move_robot(decision.mover, decision.target)
                assert after.is_rigid
                assert after.supermin_view() < cfg.supermin_view()


class TestAlignInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_rigid_configuration())
    def test_single_mover_and_valid_move(self, cfg):
        plan = plan_align(cfg)
        if cfg.is_c_star():
            assert plan == {}
            return
        assert len(plan) == 1
        (mover, target), = plan.items()
        assert cfg.is_occupied(mover)
        assert not cfg.is_occupied(target)
        assert cfg.ring.are_adjacent(mover, target)

    @settings(max_examples=60, deadline=None)
    @given(random_rigid_configuration())
    def test_planner_is_equivariant_under_rotation(self, cfg):
        plan = plan_align(cfg)
        offset = 3
        rotated_plan = plan_align(cfg.rotated(offset))
        expected = {(m + offset) % cfg.n: (t + offset) % cfg.n for m, t in plan.items()}
        assert rotated_plan == expected

    @settings(max_examples=60, deadline=None)
    @given(random_rigid_configuration())
    def test_planner_is_equivariant_under_reflection(self, cfg):
        plan = plan_align(cfg)
        reflected_plan = plan_align(cfg.reflected(0))
        expected = {(-m) % cfg.n: (-t) % cfg.n for m, t in plan.items()}
        assert reflected_plan == expected

    @settings(max_examples=40, deadline=None)
    @given(random_rigid_configuration())
    def test_next_configuration_stays_in_domain(self, cfg):
        """Theorem 1: every configuration on the Align path is rigid or the special one."""
        plan = plan_align(cfg)
        if not plan:
            return
        (mover, target), = plan.items()
        after = cfg.move_robot(mover, target)
        assert after.is_exclusive
        assert after.is_rigid or after.supermin_view() == SPECIAL_SYMMETRIC_VIEW


def run_align_to_c_star(cfg, scheduler=None, seed=0):
    engine = Simulator(
        AlignAlgorithm(), cfg, scheduler=scheduler, options=EngineOptions(presentation_seed=seed)
    )
    budget = 20 * cfg.n * cfg.k + 100
    trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), budget)
    return trace


class TestTheorem1Exhaustive:
    """Theorem 1 verified exhaustively on small rings."""

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_align_reaches_c_star_from_every_rigid_configuration(self, n):
        for k in range(3, n - 2):
            for cfg in rigid_configurations(n, k):
                trace = run_align_to_c_star(cfg)
                final = trace.final_configuration
                assert final.is_c_star()
                assert not trace.had_collision
                assert trace.max_simultaneous_moves() <= 1
                for intermediate in trace.configurations():
                    assert intermediate.is_exclusive
                    assert (
                        intermediate.is_rigid
                        or intermediate.supermin_view() == SPECIAL_SYMMETRIC_VIEW
                    )

    def test_align_moves_bounded(self):
        """Align converges within O(n * k) moves on the tested instances."""
        n = 12
        for k in range(3, n - 2):
            for cfg in rigid_configurations(n, k):
                trace = run_align_to_c_star(cfg)
                assert trace.total_moves <= 2 * n * k

    def test_align_from_cs_exact_path(self):
        cs = Configuration.from_gaps(CS_VIEW)
        trace = run_align_to_c_star(cs)
        views = [c.supermin_view() for c in trace.configurations() if c != trace.configurations()[0]]
        assert SPECIAL_SYMMETRIC_VIEW in views
        assert trace.final_configuration.supermin_view() == (0, 0, 1, 3)


class TestAlignUnderAdversarialSchedulers:
    """Only one robot is ever enabled, so asynchrony cannot hurt (Theorem 1)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_semi_synchronous(self, seed):
        cfg = Configuration.from_occupied(13, [0, 1, 4, 6, 10])
        assert cfg.is_rigid
        trace = run_align_to_c_star(cfg, scheduler=SemiSynchronousScheduler(seed=seed), seed=seed)
        assert trace.final_configuration.is_c_star()
        assert not trace.had_collision

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fully_asynchronous(self, seed):
        cfg = Configuration.from_occupied(13, [0, 1, 4, 6, 10])
        trace = run_align_to_c_star(cfg, scheduler=AsynchronousScheduler(seed=seed), seed=seed)
        assert trace.final_configuration.is_c_star()
        assert not trace.had_collision
        assert trace.max_simultaneous_moves() == 1
