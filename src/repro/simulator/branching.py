"""Branching, replayable adversary driver.

:class:`~repro.simulator.engine.Simulator` executes *one* schedule; the
model checker (:mod:`repro.modelcheck`) needs *every* schedule.  This
module provides the shared transition relation: given an algorithm and an
occupancy vector, :class:`BranchingDriver` enumerates every successor
state an SSYNC (or sequential) adversary can force in one step —
activation subsets, per-robot adversarial view presentation, and
direction tie-breaks for robots whose two views coincide.

The driver is *replayable*: a transition carries the exact activation
profile that produced it, and :meth:`BranchingDriver.apply` re-executes a
profile against an occupancy vector (validating it against the
algorithm's actual options), so a model-checking witness can be replayed
step by step and cross-checked against the engine.

**Decision semantics.**  A robot's decision is a pure function of its
snapshot, but the adversary chooses the order in which the two directed
views are presented.  The driver therefore computes the decision under
*both* presentations and exposes the union of the resulting global moves
as the robot's option set — a subset of ``{IDLE, CW, CCW}``.  For a
presentation-independent algorithm this is a singleton (or the pair
``{CW, CCW}`` when the robot's views coincide and the direction genuinely
belongs to the adversary); presentation-*dependent* algorithms (e.g. the
sweep baseline) naturally expose larger option sets, which is exactly the
adversarial behaviour the checker must explore.

**Symmetry.**  Option sets are equivariant under rotations and
reflections of the ring.  The driver relies on the one reduction that
exploits this, the process-wide class plan table of
:mod:`repro.simulator.classplan`, and keeps no dihedral memo of its
own: vectors without a class plan are evaluated per snapshot, where the
driver's :class:`~repro.model.algorithm.DecisionCache` answers repeated
views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.configuration import Configuration
from ..core.ring import CCW, CW, Ring
from ..model.algorithm import Algorithm, DecisionCache
from .classplan import plan_table, snapshot_options

__all__ = [
    "IDLE",
    "COMPACT_MOVED",
    "COMPACT_FULL",
    "COMPACT_COLLISION",
    "CompactTransition",
    "NodeActivation",
    "BranchingDriver",
]

#: Option encoding: stay on the current node.
IDLE = 0

Counts = Tuple[int, ...]

#: Flag bits of a :data:`CompactTransition` record.
COMPACT_MOVED = 1
COMPACT_FULL = 2
COMPACT_COLLISION = 4

#: Allocation-free transition record used on the frontier-engine hot
#: path: ``(profile_parts, counts_after, traversed_mask, activated_mask,
#: flags)``.  ``profile_parts`` holds the non-trivial node activations as
#: ``(node, idle, cw, ccw)`` tuples sorted by node (exactly the payload
#: of a :class:`Profile`); the two masks are ``n``-bit edge/node sets
#: (edge ``i`` is ``(i, (i + 1) % n)``); ``flags`` combines the
#: ``COMPACT_*`` bits: ``COMPACT_MOVED`` when some robot changed node,
#: ``COMPACT_FULL`` when *every* robot performed a cycle (the model
#: checker's sound fairness witness), ``COMPACT_COLLISION`` when some
#: node ends up with more than one robot.
CompactTransition = Tuple[
    Tuple[Tuple[int, int, int, int], ...], Counts, int, int, int
]


@dataclass(frozen=True)
class NodeActivation:
    """Activated robots on one node during one adversary step.

    Attributes:
        node: the occupied node.
        idle: activated robots whose (adversarially presented) snapshot
            made them decide to stay.
        cw: activated robots moving clockwise (to ``node + 1``).
        ccw: activated robots moving counter-clockwise (to ``node - 1``).
    """

    node: int
    idle: int
    cw: int
    ccw: int

    @property
    def activated(self) -> int:
        """Number of robots on the node performing a cycle this step."""
        return self.idle + self.cw + self.ccw

    def as_jsonable(self) -> Dict[str, int]:
        """Plain-dict form used in serialised witnesses."""
        return {"node": self.node, "idle": self.idle, "cw": self.cw, "ccw": self.ccw}


#: One adversary step: the non-trivial node activations, sorted by node.
Profile = Tuple[NodeActivation, ...]


class BranchingDriver:
    """Exhaustive one-step successor enumeration for one algorithm.

    Args:
        algorithm: the per-robot algorithm under analysis.
        n: ring size.
        multiplicity_detection: grant local multiplicity detection (the
            gathering capability) when building snapshots.

    Attributes:
        plan_classes: :meth:`node_options` calls answered by a class plan.
        snapshot_classes: :meth:`node_options` calls answered per
            snapshot.  Both count occupancy vectors, not classes, and are
            diagnostics only; no verdict or payload reads them.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        n: int,
        *,
        multiplicity_detection: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.n = n
        self.ring = Ring(n)
        self.multiplicity_detection = multiplicity_detection
        self._decisions = DecisionCache(maxsize=1 << 15)
        # One global plan per support class replaces up to 2k snapshot
        # evaluations wherever the algorithm has one (the process-wide
        # ClassPlanTable, which also self-checks it); other vectors are
        # evaluated per snapshot.
        self._plan_table = plan_table(algorithm, n, multiplicity_detection)
        self.plan_classes = 0
        self.snapshot_classes = 0

    # ------------------------------------------------------------------ #
    # per-robot options
    # ------------------------------------------------------------------ #
    def node_options(self, counts: Counts) -> Dict[int, Tuple[int, ...]]:
        """Adversary-achievable outcomes per occupied node.

        Returns, for every occupied node, the sorted tuple of global
        outcomes (subset of ``(-1, 0, +1)``) an activated robot on that
        node can be driven to by choosing the view presentation order.
        Co-located robots share a snapshot and hence an option set.

        Read off the support's class plan where there is one (the
        process-wide :class:`~repro.simulator.classplan.ClassPlanTable`
        plans once per dihedral class and maps the plan into the frame
        of ``counts``).  Otherwise every snapshot of ``counts`` is
        evaluated under both presentations, so a per-snapshot error
        surfaces exactly as a per-robot run raises it.
        """
        options = self._plan_table.options(counts)
        if options is not None:
            self.plan_classes += 1
            return options
        self.snapshot_classes += 1
        return snapshot_options(
            self.algorithm,
            self._decisions,
            Configuration.from_trusted_counts(counts),
            self.multiplicity_detection,
        )

    # ------------------------------------------------------------------ #
    # transition relation
    # ------------------------------------------------------------------ #
    def successors_compact(
        self, counts: Counts, mode: str = "ssync"
    ) -> Tuple[CompactTransition, ...]:
        """All one-step successors the adversary can force, as records.

        Args:
            counts: current occupancy vector.
            mode: ``"ssync"`` (any non-empty subset of robots performs an
                atomic cycle) or ``"sequential"`` (exactly one robot).

        Each transition is a plain tuple — see :data:`CompactTransition`
        — cheap to store per explored state and to expand in the
        frontier engine's BFS loop.  Transitions are deduplicated: for
        ``"ssync"`` one representative per ``(counts_after, traversed
        edges, full)`` triple, for ``"sequential"`` one per
        ``(counts_after, traversed edges, activated node)`` — the
        quotient the checker's reachability, clear-edge and fairness
        tests actually distinguish.  (Traversed edges are part of the
        key because distinct move sets can produce the same occupancy —
        e.g. a simultaneous swap of two adjacent robots — while clearing
        different edges.)  Nothing is memoised here: the model checker
        keeps each vector's records for the life of its cell
        (:class:`~repro.modelcheck.frontier.CellCache`).
        """
        if mode == "ssync":
            return self._ssync_compact(counts)
        if mode == "sequential":
            return self._sequential_compact(counts)
        raise ValueError(
            f"unknown adversary mode {mode!r}; expected 'ssync' or 'sequential'"
        )

    def _sequential_compact(self, counts: Counts) -> Tuple[CompactTransition, ...]:
        options = self.node_options(counts)
        out: List[CompactTransition] = []
        seen = set()
        total_robots = sum(counts)
        full = total_robots == 1
        for node, node_opts in options.items():
            for option in node_opts:
                parts = (
                    (
                        node,
                        1 if option == IDLE else 0,
                        1 if option == CW else 0,
                        1 if option == CCW else 0,
                    ),
                )
                record = self._build_compact(counts, parts, full)
                key = (record[1], record[2], node)
                if key not in seen:
                    seen.add(key)
                    out.append(record)
        return tuple(out)

    def _ssync_compact(self, counts: Counts) -> Tuple[CompactTransition, ...]:
        options = self.node_options(counts)
        # Nodes whose robots can only idle never change the occupancy;
        # they only matter for the "every robot activated" flag, so they
        # are factored out of the combinatorial product below.
        static_nodes = [v for v, opts in options.items() if opts == (IDLE,)]
        dynamic_nodes = [v for v, opts in options.items() if opts != (IDLE,)]
        static_robots = sum(counts[v] for v in static_nodes)
        total_robots = sum(counts)

        per_node_choices: List[List[Tuple[int, int, int, int]]] = []
        for v in dynamic_nodes:
            opts = options[v]
            capacity = counts[v]
            choices = []
            for idle in range(capacity + 1) if IDLE in opts else (0,):
                for cw in range(capacity - idle + 1) if CW in opts else (0,):
                    remaining = capacity - idle - cw
                    for ccw in range(remaining + 1) if CCW in opts else (0,):
                        choices.append((v, idle, cw, ccw))
            per_node_choices.append(choices)

        out: List[CompactTransition] = []
        seen = set()

        def emit(profile_parts: Sequence[Tuple[int, int, int, int]], full: bool) -> None:
            parts = tuple(
                part for part in sorted(profile_parts) if part[1] + part[2] + part[3] > 0
            )
            record = self._build_compact(counts, parts, full)
            key = (record[1], record[2], full)
            if key not in seen:
                seen.add(key)
                out.append(record)

        for combo in itertools.product(*per_node_choices):
            activated_dynamic = sum(i + c + w for (_, i, c, w) in combo)
            dynamic_fully_activated = all(
                i + c + w == counts[v] for (v, i, c, w) in combo
            )
            # Full step: every robot cycles — all static robots idle and
            # every dynamic node is fully activated.  Only possible when
            # each dynamic node can absorb full activation with this
            # split (the combo already says so).
            if dynamic_fully_activated:
                full_parts = list(combo) + [(v, counts[v], 0, 0) for v in static_nodes]
                emit(full_parts, full=(activated_dynamic + static_robots == total_robots))
            # Partial step: the chosen dynamic activations only.  Needs
            # at least one activated robot; a pure-static activation
            # realises the "nothing happens" step when available.
            if 0 < activated_dynamic < total_robots:
                emit(combo, full=False)
            elif activated_dynamic == 0 and static_robots > 0 and total_robots > 1:
                emit([(static_nodes[0], 1, 0, 0)], full=False)
        return tuple(out)

    def _build_compact(
        self,
        counts: Counts,
        parts: Tuple[Tuple[int, int, int, int], ...],
        full: bool,
    ) -> CompactTransition:
        n = self.n
        new_counts = list(counts)
        traversed_mask = 0
        activated_mask = 0
        moved = False
        for v, _idle, cw, ccw in parts:
            activated_mask |= 1 << v
            movers = cw + ccw
            if movers:
                moved = True
                new_counts[v] -= movers
                if cw:
                    new_counts[(v + 1) % n] += cw
                    traversed_mask |= 1 << v
                if ccw:
                    new_counts[(v - 1) % n] += ccw
                    traversed_mask |= 1 << ((v - 1) % n)
        counts_after = tuple(new_counts)
        flags = (COMPACT_MOVED if moved else 0) | (COMPACT_FULL if full else 0)
        for c in counts_after:
            if c > 1:
                flags |= COMPACT_COLLISION
                break
        return (parts, counts_after, traversed_mask, activated_mask, flags)

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def apply(self, counts: Counts, profile: Iterable[NodeActivation]) -> Counts:
        """Re-execute an activation profile, validating it first.

        Raises:
            ValueError: when the profile activates more robots than a
                node holds, or drives a robot to an outcome the algorithm
                cannot be made to produce under any view presentation.
        """
        options = self.node_options(counts)
        new_counts = list(counts)
        for activation in profile:
            v = activation.node
            if v not in options:
                raise ValueError(f"profile activates unoccupied node {v}")
            if activation.activated > counts[v]:
                raise ValueError(
                    f"profile activates {activation.activated} robots on node {v}, "
                    f"which holds only {counts[v]}"
                )
            allowed = options[v]
            for amount, option in (
                (activation.idle, IDLE),
                (activation.cw, CW),
                (activation.ccw, CCW),
            ):
                if amount and option not in allowed:
                    raise ValueError(
                        f"profile drives node {v} to outcome {option}, "
                        f"but the algorithm only allows {allowed}"
                    )
            new_counts[v] -= activation.cw + activation.ccw
            new_counts[(v + 1) % self.n] += activation.cw
            new_counts[(v - 1) % self.n] += activation.ccw
        return tuple(new_counts)

    def replay(self, counts: Counts, profiles: Iterable[Iterable[NodeActivation]]) -> List[Counts]:
        """Replay a sequence of profiles; returns every intermediate vector.

        The returned list starts with ``counts`` itself, so a witness of
        ``m`` steps replays to ``m + 1`` vectors.
        """
        trajectory = [counts]
        for profile in profiles:
            counts = self.apply(counts, profile)
            trajectory.append(counts)
        return trajectory
