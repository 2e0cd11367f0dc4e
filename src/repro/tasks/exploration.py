"""Exclusive perpetual exploration monitoring.

The exclusive perpetual exploration task requires *every robot* to visit
*every node* infinitely often while the exclusivity property always
holds.  The monitor tracks, per robot, how many times it has visited each
node and when; experiments verify perpetual exploration by combining this
data with periodicity detection on the trace (a periodic behaviour whose
period makes every robot visit every node keeps doing so forever).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..core.configuration import Configuration
from ..simulator.trace import MoveRecord
from .base import Monitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import Simulator

__all__ = ["ExplorationMonitor"]


class ExplorationMonitor(Monitor):
    """Track per-robot node visits."""

    def __init__(self) -> None:
        self.ring_size: int = 0
        self.num_robots: int = 0
        #: visit_counts[robot_id][node] -> number of visits (arrival counts; the
        #: initial position counts as one visit).
        self.visit_counts: Dict[int, Dict[int, int]] = {}
        #: visit_steps[robot_id][node] -> steps at which the robot arrived on the node.
        self.visit_steps: Dict[int, Dict[int, List[int]]] = {}

    def on_start(self, engine: "Simulator") -> None:
        """Record ring geometry and count the initial positions as visits."""
        self.ring_size = engine.ring_size
        self.num_robots = engine.num_robots
        self.visit_counts = {
            r: {node: 0 for node in range(self.ring_size)} for r in range(self.num_robots)
        }
        self.visit_steps = {
            r: {node: [] for node in range(self.ring_size)} for r in range(self.num_robots)
        }
        for r in range(self.num_robots):
            position = engine.robot(r).position
            self.visit_counts[r][position] += 1
            self.visit_steps[r][position].append(-1)

    def on_step(
        self,
        engine: "Simulator",
        moves: Sequence[MoveRecord],
        configuration: Configuration,
    ) -> None:
        """Credit each executed move as a visit of its target node."""
        if not moves:
            return
        step = engine.step_count - 1
        for move in moves:
            self.visit_counts[move.robot_id][move.target] += 1
            self.visit_steps[move.robot_id][move.target].append(step)

    # ------------------------------------------------------------------ #
    # verification helpers
    # ------------------------------------------------------------------ #
    def nodes_visited_by(self, robot_id: int, minimum: int = 1) -> Tuple[int, ...]:
        """Nodes the robot visited at least ``minimum`` times."""
        return tuple(
            node for node, count in self.visit_counts[robot_id].items() if count >= minimum
        )

    def robot_covered_ring(self, robot_id: int, minimum: int = 1) -> bool:
        """Whether the robot visited every node at least ``minimum`` times."""
        return all(count >= minimum for count in self.visit_counts[robot_id].values())

    def all_robots_covered_ring(self, minimum: int = 1) -> bool:
        """Whether every robot visited every node at least ``minimum`` times."""
        return all(self.robot_covered_ring(r, minimum) for r in range(self.num_robots))

    def coverage_fraction(self) -> float:
        """Fraction of (robot, node) pairs already visited at least once."""
        total = self.num_robots * self.ring_size
        if total == 0:
            return 0.0
        visited = sum(
            1
            for r in range(self.num_robots)
            for count in self.visit_counts[r].values()
            if count >= 1
        )
        return visited / total

    def cover_time(self) -> int:
        """First step by which every robot had visited every node.

        Returns ``-1`` when full coverage was not reached during the run.
        """
        latest = -1
        for r in range(self.num_robots):
            for node in range(self.ring_size):
                steps = self.visit_steps[r][node]
                if not steps:
                    return -1
                latest = max(latest, steps[0])
        return latest

    def min_visits(self) -> int:
        """Smallest visit count over all (robot, node) pairs."""
        return min(
            count for r in range(self.num_robots) for count in self.visit_counts[r].values()
        )
