"""Robot model: snapshots, decisions and the algorithm protocol."""

from .algorithm import Algorithm, GlobalRuleAlgorithm, PlannedMoves, is_pure_global_rule
from .decisions import Decision, DecisionKind
from .snapshot import Snapshot

__all__ = [
    "Algorithm",
    "GlobalRuleAlgorithm",
    "PlannedMoves",
    "Decision",
    "DecisionKind",
    "Snapshot",
    "is_pure_global_rule",
]
