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
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.configuration import Configuration
from ..core.cyclic import PackedSequenceCodec, packed_codec
from ..core.errors import (
    AlgorithmPreconditionError,
    InvalidConfigurationError,
    UnsupportedParametersError,
)
from ..core.ring import CCW, CW, Edge, Ring
from ..core.symmetry import dihedral_permutation_tables
from ..model.algorithm import Algorithm, DecisionCache, GlobalRuleAlgorithm
from ..model.snapshot import Snapshot
from .engine import ConfigurationPool

__all__ = [
    "IDLE",
    "COMPACT_MOVED",
    "COMPACT_FULL",
    "COMPACT_COLLISION",
    "CompactTransition",
    "NodeActivation",
    "BranchTransition",
    "BranchingDriver",
]

#: Option encoding: stay on the current node.
IDLE = 0

logger = logging.getLogger(__name__)

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
#: ``COMPACT_*`` bits.  :meth:`BranchingDriver.successors` inflates these
#: records into :class:`BranchTransition` dataclasses, so both APIs see
#: the identical enumeration, in the identical order.
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


@dataclass(frozen=True)
class BranchTransition:
    """One edge of the branching transition relation.

    Attributes:
        profile: the activation profile that produces the transition.
        counts_after: occupancy vector after the simultaneous moves.
        moved: whether any robot changed node.
        full: whether *every* robot performed a cycle this step (the
            model checker's sound fairness witness: a cycle containing a
            full step treats every robot fairly when looped forever).
        activated_nodes: nodes holding at least one activated robot
            (used by the sequential adversary's coverage-based fairness
            test).
        collision: whether some node ends up with more than one robot
            (only meaningful for tasks enforcing exclusivity).
        traversed: ring edges traversed by the moves (feeds the
            clear/recontaminate dynamics of the searching task).
    """

    profile: Profile
    counts_after: Counts
    moved: bool
    full: bool
    activated_nodes: FrozenSet[int]
    collision: bool
    traversed: Tuple[Edge, ...]


class BranchingDriver:
    """Exhaustive one-step successor enumeration for one algorithm.

    Args:
        algorithm: the per-robot algorithm under analysis.
        n: ring size.
        multiplicity_detection: grant local multiplicity detection (the
            gathering capability) when building snapshots.
        pool_size: bound of the internal configuration pool; revisited
            occupancy vectors reuse memoised gap/supermin/symmetry state.

    Attributes:
        plan_classes: option computations answered by one global plan.
        snapshot_classes: option computations answered per snapshot.
            Both are diagnostics only; no verdict or payload reads them.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        n: int,
        *,
        multiplicity_detection: bool = False,
        pool_size: int = 1 << 15,
    ) -> None:
        self.algorithm = algorithm
        self.n = n
        self.ring = Ring(n)
        self.multiplicity_detection = multiplicity_detection
        self._pool = ConfigurationPool(pool_size)
        self._decisions = DecisionCache(maxsize=1 << 15)
        self._options_cache: Dict[Counts, Dict[int, Tuple[int, ...]]] = {}
        self._canon_options: Dict[Counts, Dict[int, Tuple[int, ...]]] = {}
        self._compact_cache: Dict[Tuple[Counts, str], Tuple[CompactTransition, ...]] = {}
        self._codecs: Dict[int, PackedSequenceCodec] = {}
        # Global-plan fast path: wherever a GlobalRuleAlgorithm's
        # global_plan() answers, every per-robot decision is a frame
        # change of that one equivariant plan, so one plan replaces up to
        # 2k snapshot evaluations.  Where it returns None (presentation-
        # or multiplicity-dependent decisions, e.g. the Gathering
        # endgame) the class takes the exact per-snapshot path.  The
        # first few answered classes are double-checked against the
        # per-snapshot path; any mismatch (a planner violating its
        # equivariance contract) permanently disables the fast path for
        # this driver.
        self._global_plan = isinstance(algorithm, GlobalRuleAlgorithm)
        self._global_plan_checks = 8
        self.plan_classes = 0
        self.snapshot_classes = 0

    # ------------------------------------------------------------------ #
    # per-robot options
    # ------------------------------------------------------------------ #
    def configuration(self, counts: Counts) -> Configuration:
        """Pooled configuration for a validated occupancy vector."""
        return self._pool.configuration(counts)

    def _codec(self, k: int) -> PackedSequenceCodec:
        codec = self._codecs.get(k)
        if codec is None:
            codec = packed_codec(self.n, k)
            self._codecs[k] = codec
        return codec

    def node_options(self, counts: Counts) -> Dict[int, Tuple[int, ...]]:
        """Adversary-achievable outcomes per occupied node.

        Returns, for every occupied node, the sorted tuple of global
        outcomes (subset of ``(-1, 0, +1)``) an activated robot on that
        node can be driven to by choosing the view presentation order.
        Co-located robots share a snapshot and hence an option set.

        Algorithms are automorphism-equivariant (they are pure functions
        of the view pair), so the option sets of dihedral-equivalent
        occupancy vectors are images of each other: rotations relabel the
        nodes, reflections additionally swap clockwise and
        counter-clockwise.  Decisions are therefore computed once per
        *canonical* occupancy class and mapped into the concrete frame
        through the precomputed permutation tables, which collapses the
        number of algorithm invocations by up to ``2 n``.
        """
        cached = self._options_cache.get(counts)
        if cached is not None:
            return cached
        codec = self._codec(sum(counts))
        _, flip, r = codec.canonical_with_transform(codec.pack(counts))
        if flip == 0 and r == 0:
            options = self._canon_options.get(counts)
            if options is None:
                options = self._compute_options(counts)
                self._canon_options[counts] = options
        else:
            options = self._mapped_options(counts, flip, r)
        self._options_cache[counts] = options
        return options

    def _mapped_options(
        self, counts: Counts, flip: int, r: int
    ) -> Dict[int, Tuple[int, ...]]:
        """Options of ``counts`` derived from its canonical class."""
        n = self.n
        rotations, reflections = dihedral_permutation_tables(n)
        sigma = rotations[r] if flip == 0 else reflections[(n - 1 - r) % n]
        canon_counts = tuple(counts[sigma[j]] for j in range(n))
        canon_options = self._canon_options.get(canon_counts)
        if canon_options is None:
            try:
                canon_options = self._compute_options(canon_counts)
            except (
                AlgorithmPreconditionError,
                UnsupportedParametersError,
                InvalidConfigurationError,
            ):
                # Preserve the exact error of the concrete vector:
                # recompute in its own frame and let the failure surface
                # from there.
                return self._compute_options(counts)
            self._canon_options[canon_counts] = canon_options
        # sigma maps canonical index j to concrete node sigma(j); its
        # inverse is the rotation by n - r, or the same reflection again.
        inverse = rotations[(n - r) % n] if flip == 0 else sigma
        options: Dict[int, Tuple[int, ...]] = {}
        if flip == 0:
            for v in range(n):
                if counts[v]:
                    options[v] = canon_options[inverse[v]]
        else:
            for v in range(n):
                if counts[v]:
                    options[v] = tuple(
                        sorted(-o for o in canon_options[inverse[v]])
                    )
        return options

    def _compute_options(self, counts: Counts) -> Dict[int, Tuple[int, ...]]:
        """Option computation for one occupancy vector (canonical or not)."""
        if self._global_plan:
            derived = self._compute_options_from_plan(counts)
            if derived is not None:
                if self._global_plan_checks > 0:
                    self._global_plan_checks -= 1
                    checked = self._compute_options_snapshots(counts)
                    if checked != derived:
                        self._global_plan = False
                        logger.warning(
                            "global plan of %s disagrees with its per-snapshot "
                            "decisions on n=%d counts=%s; using the per-snapshot "
                            "path from now on",
                            self.algorithm.name,
                            self.n,
                            counts,
                        )
                        self.snapshot_classes += 1
                        return checked
                self.plan_classes += 1
                return derived
        self.snapshot_classes += 1
        return self._compute_options_snapshots(counts)

    def _compute_options_from_plan(
        self, counts: Counts
    ) -> "Optional[Dict[int, Tuple[int, ...]]]":
        """Options derived from one global plan of an equivariant planner.

        The plan comes from :meth:`GlobalRuleAlgorithm.global_plan` on
        the pooled *support* configuration (what every snapshot
        reconstructs).  For an equivariant planner both view
        presentations of a robot yield the same *global* outcome, so the
        option set per occupied node is the plan's direction (or idle) —
        except on nodes whose two views coincide, where "move" means the
        adversary picks the direction.  Returns ``None`` (caller falls
        back to the exact per-snapshot path) when the algorithm has no
        global plan for this configuration, or when the plan asks for a
        non-adjacent hop, so the per-snapshot error surfaces identically.
        """
        configuration = self.configuration(counts)
        if not configuration.is_exclusive:
            configuration = self.configuration(tuple(1 if c else 0 for c in counts))
        moves = self.algorithm.global_plan(configuration)
        if moves is None:
            return None
        n = self.n
        options: Dict[int, Tuple[int, ...]] = {}
        for node in configuration.support:
            target = moves.get(node)
            if target is None:
                options[node] = (IDLE,)
            elif target != (node + 1) % n and target != (node - 1) % n:
                return None
            else:
                cw_view, ccw_view = configuration.views_of(node)
                if cw_view == ccw_view:
                    options[node] = (CCW, CW)
                elif target == (node + 1) % n:
                    options[node] = (CW,)
                else:
                    options[node] = (CCW,)
        return options

    def _compute_options_snapshots(self, counts: Counts) -> Dict[int, Tuple[int, ...]]:
        """Direct option computation (one algorithm call per presentation)."""
        configuration = self.configuration(counts)
        options: Dict[int, Tuple[int, ...]] = {}
        for node in configuration.support:
            cw_view, ccw_view = configuration.views_of(node)
            on_multiplicity = (
                self.multiplicity_detection and configuration.multiplicity(node) > 1
            )
            outcomes = set()
            for first_direction, views in ((CW, (cw_view, ccw_view)), (CCW, (ccw_view, cw_view))):
                snapshot = Snapshot(n=self.n, views=views, on_multiplicity=on_multiplicity)
                decision = self._decisions.compute(self.algorithm, snapshot)
                if decision.is_idle:
                    outcomes.add(IDLE)
                else:
                    outcomes.add(
                        first_direction if decision.toward_view == 0 else -first_direction
                    )
            options[node] = tuple(sorted(outcomes))
        return options

    # ------------------------------------------------------------------ #
    # transition relation
    # ------------------------------------------------------------------ #
    def successors(self, counts: Counts, mode: str = "ssync") -> List[BranchTransition]:
        """All one-step successors the adversary can force.

        Args:
            counts: current occupancy vector.
            mode: ``"ssync"`` (any non-empty subset of robots performs an
                atomic cycle) or ``"sequential"`` (exactly one robot).

        Transitions are deduplicated: for ``"ssync"`` one representative
        per ``(counts_after, traversed edges, full)`` triple, for
        ``"sequential"`` one per ``(counts_after, traversed edges,
        activated node)`` — the quotient the checker's reachability,
        clear-edge and fairness tests actually distinguish.  (Traversed
        edges are part of the key because distinct move sets can produce
        the same occupancy — e.g. a simultaneous swap of two adjacent
        robots — while clearing different edges.)
        """
        return [
            self.transition_from_compact(record)
            for record in self.successors_compact(counts, mode)
        ]

    def successors_compact(
        self, counts: Counts, mode: str = "ssync"
    ) -> Tuple[CompactTransition, ...]:
        """The successor enumeration as allocation-free records.

        Same transitions, same order and same deduplication as
        :meth:`successors` (which is a thin wrapper inflating these
        records), but each transition is a plain tuple — see
        :data:`CompactTransition` — cheap to store per explored state
        and to expand in the frontier engine's BFS loop.  Results are
        memoised per
        ``(counts, mode)``.
        """
        key = (counts, mode)
        cached = self._compact_cache.get(key)
        if cached is None:
            if mode == "ssync":
                cached = self._ssync_compact(counts)
            elif mode == "sequential":
                cached = self._sequential_compact(counts)
            else:
                raise ValueError(
                    f"unknown adversary mode {mode!r}; expected 'ssync' or 'sequential'"
                )
            self._compact_cache[key] = cached
        return cached

    def transition_from_compact(self, record: CompactTransition) -> BranchTransition:
        """Inflate a compact record into a :class:`BranchTransition`."""
        parts, counts_after, traversed_mask, _activated_mask, flags = record
        n = self.n
        return BranchTransition(
            profile=tuple(
                NodeActivation(node=v, idle=i, cw=c, ccw=w) for (v, i, c, w) in parts
            ),
            counts_after=counts_after,
            moved=bool(flags & COMPACT_MOVED),
            full=bool(flags & COMPACT_FULL),
            activated_nodes=frozenset(v for (v, _, _, _) in parts),
            collision=bool(flags & COMPACT_COLLISION),
            traversed=tuple(
                (i, (i + 1) % n) for i in range(n) if (traversed_mask >> i) & 1
            ),
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
