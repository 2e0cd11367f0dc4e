"""The purity gate behind ``GlobalRuleAlgorithm.global_plan``'s default."""

from repro.algorithms import (
    AlignAlgorithm,
    GatheringAlgorithm,
    IdleAlgorithm,
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.model import is_pure_global_rule


class CountingAlign(AlignAlgorithm):
    """Align with a planner-call counter (still a pure global rule)."""

    def __init__(self):
        super().__init__()
        self.plan_calls = 0

    def plan(self, configuration):
        self.plan_calls += 1
        return super().plan(configuration)


class TestPurityGate:
    def test_classification(self):
        assert is_pure_global_rule(AlignAlgorithm())
        assert is_pure_global_rule(RingClearingAlgorithm())
        assert is_pure_global_rule(CountingAlign())
        # Not GlobalRuleAlgorithm subclasses at all:
        assert not is_pure_global_rule(SweepAlgorithm())
        assert not is_pure_global_rule(IdleAlgorithm())
        # Overrides plan_for_snapshot (multiplicity-dependent):
        assert not is_pure_global_rule(GatheringAlgorithm())
