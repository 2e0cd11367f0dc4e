"""Adversary game solver for exclusive perpetual graph searching (small cases).

The impossibility results of the paper (Theorems 2-5) are proved by
exhibiting adversarial schedulers against *every* candidate algorithm.
This module re-derives such results computationally for small ``(k, n)``
by exhaustively searching the space of deterministic view-based
algorithms and, for each candidate, letting a semi-synchronous adversary
try to break it.

**Model.**  An algorithm is a mapping from a robot's observation — the
unordered pair of its two directed views — to one of

* ``idle``,
* ``toward_min`` (move one edge in the direction whose view is
  lexicographically smaller), or
* ``toward_max`` (the other direction);

when the two views are identical the robot cannot distinguish the
directions and a move means "the adversary picks the direction".  The
adversary activates any non-empty subset of robots per step (atomic
Look-Compute-Move cycles, i.e. the semi-synchronous model) and chooses
the directions of symmetric movers.

**Verdicts.**  The adversary *wins* against a candidate algorithm if it
can (a) force a collision (exclusivity violation), or (b) reach a
strongly connected set of system states — configuration plus clear-edge
set — in which some fixed edge is never clear and whose internal steps
together activate every robot (so the adversary can cycle through it
forever while activating each robot infinitely often).  One
activate-everybody step is enough, but so are partial activations that
alternate between robots; this per-robot rule is stronger than
requiring a full-activation step, which is all the model checker
searches for (see :mod:`repro.modelcheck.checker`).  Both conditions
imply that the algorithm does not solve exclusive perpetual graph
searching in the CORDA model (the asynchronous adversary subsumes the
semi-synchronous one), so the verdict
``IMPOSSIBLE`` (every candidate loses) is *sound*.  Conversely
``CANDIDATE_FOUND`` only means that this particular adversary could not
break some candidate; it is evidence, not a proof of feasibility.

The search is exponential in the number of observation classes and is
therefore limited to small instances (the limits are explicit
parameters); experiment E6 uses it on ``k <= 3`` and tiny rings, exactly
the base cases of the paper's Theorems 2, 3 and 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.configuration import Configuration
from ..core.errors import SimulationLimitError, UnsupportedParametersError
from ..core.ring import Ring
from ..tasks.searching import ring_search_dynamics
from .enumeration import enumerate_configurations, iter_configurations
from .graphs import tarjan_scc

__all__ = ["Option", "GameVerdict", "GameResult", "SearchGameSolver", "searching_game_verdict"]


class _ComboTable:
    """Clear-independent expansion of one ``(positions, targets)`` pair.

    Every activation subset and direction choice yields, independently of
    the current clear-edge mask, the activated-robot mask, the traversed
    edges, the successor support mask, the packed positions digits and the
    successor positions tuple.  The table stores those combos *in the
    exact enumeration order* of the original per-state loop, truncated at
    the first collision (``collision`` records that the enumeration would
    have ended with an adversary win there).  Replaying a table against a
    concrete clear mask therefore reproduces the serial expansion —
    including the collision early-exit point and the ``max_states`` cap
    position — while the enumeration cost is paid once per distinct
    ``(positions, per-robot targets)`` pair instead of once per state per
    candidate algorithm.
    """

    __slots__ = ("robots", "supports", "traversed", "pos_codes", "new_positions", "collision")

    def __init__(self) -> None:
        self.robots: List[int] = []
        self.supports: List[int] = []
        self.traversed: List[int] = []
        self.pos_codes: List[int] = []
        self.new_positions: List[Tuple[int, ...]] = []
        self.collision = False


#: A robot observation class: the (sorted) pair of its two directed views.
ObservationClass = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: A system state of the game: robot positions (indexed by robot
#: identity, used only for fairness accounting) and the set of clear
#: edges.  Internally the solver packs the whole state into one int —
#: ``position-bits`` digits per robot with the clear-edge mask above
#: them (see :mod:`repro.modelcheck.frontier` for the encoding idea) —
#: so the reachability sets and SCC passes run over plain integers.
GameState = Tuple[Tuple[int, ...], FrozenSet[Tuple[int, int]]]

#: Per-node observation data shared by every candidate algorithm:
#: ``(observation class, toward_min target, toward_max target,
#: direction_ambiguous)``.
_NodeInfo = Tuple[ObservationClass, Optional[int], Optional[int], bool]


class Option(Enum):
    """Decision assigned to one observation class."""

    IDLE = "idle"
    TOWARD_MIN = "toward_min"
    TOWARD_MAX = "toward_max"


class GameVerdict(Enum):
    """Outcome of the exhaustive search."""

    IMPOSSIBLE = "impossible"
    CANDIDATE_FOUND = "candidate-found"


@dataclass(frozen=True)
class GameResult:
    """Result of solving one instance.

    Attributes:
        n: ring size.
        k: number of robots.
        verdict: whether every candidate algorithm was defeated.
        algorithms_checked: number of candidate algorithms examined.
        witness: a surviving assignment (observation class -> option) when
            the verdict is ``CANDIDATE_FOUND``.
    """

    n: int
    k: int
    verdict: GameVerdict
    algorithms_checked: int
    witness: Optional[Dict[ObservationClass, Option]] = None


class SearchGameSolver:
    """Exhaustive semi-synchronous adversary analysis for small ``(k, n)``.

    Args:
        n: ring size.
        k: number of robots (``1 <= k < n``).
        max_classes: refuse instances with more observation classes than
            this (the candidate space is ``3 ** classes``).
        max_states: cap on the number of game states explored per
            candidate algorithm.
    """

    def __init__(self, n: int, k: int, *, max_classes: int = 12, max_states: int = 40000) -> None:
        if k < 1 or k >= n:
            raise UnsupportedParametersError(f"the game solver needs 1 <= k < n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.ring = Ring(n)
        self.max_states = max_states
        self._dynamics = ring_search_dynamics(n)
        self._position_bits = max(1, (n - 1).bit_length())
        #: Observation data per occupied-set mask, shared across *all*
        #: candidate algorithms (views do not depend on the candidate).
        self._node_info: Dict[int, Dict[int, _NodeInfo]] = {}
        #: Combo tables keyed by ``(positions, per-robot targets)`` —
        #: shared across all candidate algorithms and starting
        #: configurations of this instance (see :class:`_ComboTable`).
        self._combo_tables: Dict[Tuple[Tuple[int, ...], Tuple[Tuple[Optional[int], ...], ...]], _ComboTable] = {}
        self._classes = self._collect_observation_classes()
        if len(self._classes) > max_classes:
            raise UnsupportedParametersError(
                f"instance too large for exhaustive search: {len(self._classes)} observation "
                f"classes (limit {max_classes})"
            )

    # ------------------------------------------------------------------ #
    # observation classes
    # ------------------------------------------------------------------ #
    def _collect_observation_classes(self) -> List[ObservationClass]:
        classes: Set[ObservationClass] = set()
        for configuration in iter_configurations(self.n, self.k):
            for node in configuration.support:
                classes.add(self.observation_class(configuration, node))
        return sorted(classes)

    @property
    def observation_classes(self) -> List[ObservationClass]:
        """All observation classes that can occur with ``k`` robots on ``n`` nodes."""
        return list(self._classes)

    @staticmethod
    def observation_class(configuration: Configuration, node: int) -> ObservationClass:
        """The observation class of the robot on ``node``."""
        cw, ccw = configuration.views_of(node)
        first, second = sorted((cw, ccw))
        return (first, second)

    def candidate_count(self) -> int:
        """Number of candidate algorithms the exhaustive search will examine."""
        total = 1
        for first, second in self._classes:
            total *= 2 if first == second else 3
        return total

    def _candidate_assignments(self) -> Iterable[Dict[ObservationClass, Option]]:
        per_class_options: List[Sequence[Option]] = []
        for first, second in self._classes:
            if first == second:
                per_class_options.append((Option.IDLE, Option.TOWARD_MIN))
            else:
                per_class_options.append((Option.IDLE, Option.TOWARD_MIN, Option.TOWARD_MAX))
        for combo in itertools.product(*per_class_options):
            yield dict(zip(self._classes, combo))

    # ------------------------------------------------------------------ #
    # game dynamics for a fixed candidate algorithm
    # ------------------------------------------------------------------ #
    def _support_info(self, support_mask: int, occupied: Tuple[int, ...]) -> Dict[int, _NodeInfo]:
        """Observation class and move targets per occupied node.

        Candidate-independent — views are a property of the occupied set
        alone — so this is computed once per support mask across the
        whole ``3 ** classes`` candidate sweep, instead of once per
        candidate as the pre-packed solver did.
        """
        info = self._node_info.get(support_mask)
        if info is not None:
            return info
        n = self.n
        configuration = Configuration.from_occupied(n, occupied)
        info = {}
        for node in occupied:
            cw, ccw = configuration.views_of(node)
            cls = self.observation_class(configuration, node)
            if cw == ccw:
                info[node] = (cls, None, None, True)
            else:
                min_is_cw = cw < ccw
                toward_min = (node + 1) % n if min_is_cw else (node - 1) % n
                toward_max = (node - 1) % n if min_is_cw else (node + 1) % n
                info[node] = (cls, toward_min, toward_max, False)
        self._node_info[support_mask] = info
        return info

    def _decision_targets(
        self,
        positions: Tuple[int, ...],
        assignment: Dict[ObservationClass, Option],
        cache: Dict[int, Dict[int, Tuple[Optional[int], ...]]],
    ) -> Dict[int, Tuple[Optional[int], ...]]:
        """Possible landing nodes of each robot (by node) when activated.

        ``None`` means staying idle; two targets appear only when the
        robot's two views coincide and the adversary chooses the direction.
        """
        support_mask = 0
        for p in positions:
            support_mask |= 1 << p
        targets = cache.get(support_mask)
        if targets is not None:
            return targets
        n = self.n
        info = self._support_info(support_mask, tuple(sorted(set(positions))))
        targets = {}
        for node, (cls, toward_min, toward_max, ambiguous) in info.items():
            option = assignment[cls]
            if option is Option.IDLE:
                targets[node] = (None,)
            elif ambiguous:
                targets[node] = ((node + 1) % n, (node - 1) % n)
            else:
                targets[node] = (
                    toward_min if option is Option.TOWARD_MIN else toward_max,
                )
        cache[support_mask] = targets
        return targets

    def _combo_table(
        self,
        positions: Tuple[int, ...],
        targets_by_node: Dict[int, Tuple[Optional[int], ...]],
    ) -> _ComboTable:
        """The (cached) clear-independent combo expansion for one state.

        The enumeration below is the former per-state inner loop of
        :meth:`_adversary_wins`, verbatim: subsets by size then
        lexicographic order, direction choices in ``itertools.product``
        order.  Only the clear-mask-dependent steps (``advance`` and the
        final packing) are deferred to replay time.
        """
        sig = tuple(targets_by_node[p] for p in positions)
        key = (positions, sig)
        table = self._combo_tables.get(key)
        if table is not None:
            return table
        table = _ComboTable()
        n = self.n
        position_bits = self._position_bits
        k = len(positions)
        for subset_size in range(1, k + 1):
            for subset in itertools.combinations(range(k), subset_size):
                per_robot_choices = [sig[robot] for robot in subset]
                robots_mask = 0
                for robot in subset:
                    robots_mask |= 1 << robot
                for choice in itertools.product(*per_robot_choices):
                    new_positions = list(positions)
                    traversed = 0
                    for robot, target in zip(subset, choice):
                        if target is not None:
                            source = positions[robot]
                            traversed |= 1 << (
                                source if (source + 1) % n == target else target
                            )
                            new_positions[robot] = target
                    new_support = 0
                    collision = False
                    for p in new_positions:
                        bit = 1 << p
                        if new_support & bit:
                            collision = True
                            break
                        new_support |= bit
                    if collision:
                        table.collision = True
                        break
                    pos_code = 0
                    for p in new_positions:
                        pos_code = (pos_code << position_bits) | p
                    table.robots.append(robots_mask)
                    table.supports.append(new_support)
                    table.traversed.append(traversed)
                    table.pos_codes.append(pos_code)
                    table.new_positions.append(tuple(new_positions))
                if table.collision:
                    break
            if table.collision:
                break
        self._combo_tables[key] = table
        return table

    def _adversary_wins(
        self, initial: Configuration, assignment: Dict[ObservationClass, Option]
    ) -> bool:
        """Whether the semi-synchronous adversary defeats the candidate algorithm.

        The adversary wins when it can force a collision, or when there is
        a reachable *fair trap* for some ring edge: a strongly connected
        set of states in which the edge is never clear and whose internal
        transitions collectively activate every robot (so the adversary
        can loop there forever without starving any robot).

        The exploration runs entirely over packed integer states —
        positions digits with the clear-edge bitmask above them — with
        the clear/recontaminate dynamics served by the shared
        interval-mask :class:`~repro.tasks.searching.RingSearchDynamics`
        memo.  Each state expands by *replaying* its cached
        :class:`_ComboTable` (clear-independent, shared across all
        candidate algorithms).  Traversal order, the collision early-exit and the ``max_states`` cap behave
        exactly as the tuple-state implementation did.
        """
        cache: Dict[int, Dict[int, Tuple[Optional[int], ...]]] = {}
        dynamics = self._dynamics
        advance = dynamics.advance
        n = self.n
        position_bits = self._position_bits
        positions = tuple(sorted(initial.support))
        k = len(positions)
        support_mask = 0
        for p in positions:
            support_mask |= 1 << p
        clear = dynamics.initial_clear(support_mask)
        clear_shift = k * position_bits

        start_code = 0
        for p in positions:
            start_code = (start_code << position_bits) | p
        start = (clear << clear_shift) | start_code
        states: Set[int] = {start}
        edges: Dict[int, List[Tuple[int, int]]] = {}
        frontier: List[Tuple[int, Tuple[int, ...], int]] = [(start, positions, clear)]
        while frontier:
            packed, positions, clear = frontier.pop()
            targets_by_node = self._decision_targets(positions, assignment, cache)
            table = self._combo_table(positions, targets_by_node)
            outgoing: List[Tuple[int, int]] = []
            seen_edges: Set[Tuple[int, int]] = set()
            clear_list = [
                advance(new_support, clear | traversed)
                for new_support, traversed in zip(table.supports, table.traversed)
            ]
            packed_list = [
                (new_clear << clear_shift) | pos_code
                for new_clear, pos_code in zip(clear_list, table.pos_codes)
            ]
            for robots_mask, new_pos, new_clear, next_packed in zip(
                table.robots, table.new_positions, clear_list, packed_list
            ):
                edge = (next_packed, robots_mask)
                if edge not in seen_edges:
                    # Distinct move sets can reach the same packed
                    # state with the same activated robots; the
                    # fair-trap test only sees the (target,
                    # robots) pair, so duplicates are dropped.
                    seen_edges.add(edge)
                    outgoing.append(edge)
                if next_packed not in states:
                    states.add(next_packed)
                    if len(states) > self.max_states:
                        raise SimulationLimitError(
                            f"game state space exceeded {self.max_states} states"
                        )
                    frontier.append((next_packed, new_pos, new_clear))
            if table.collision:
                return True
            edges[packed] = outgoing
        all_robots = (1 << k) - 1
        for i in range(n):
            edge_bit = 1 << (clear_shift + i)
            bad_states = {s for s in states if not s & edge_bit}
            if self._fair_trap_exists(bad_states, edges, all_robots):
                return True
        return False

    @staticmethod
    def _fair_trap_exists(
        bad_states: Set[int],
        edges: Dict[int, List[Tuple[int, int]]],
        all_robots: int,
    ) -> bool:
        """Fair-trap test: an SCC inside ``bad_states`` whose transitions cover all robots.

        Every state visited infinitely often by a fair run avoiding the
        clearing of the chosen edge lies in one strongly connected
        component of the restricted graph, and the transitions used
        infinitely often activate every robot; conversely any such SCC can
        be turned into a fair infinite run.  The test is therefore exact
        for the semi-synchronous adversary.  States are packed ints and
        robot sets are bitmasks (``all_robots`` is the full mask).
        """
        if not bad_states:
            return False
        restricted: Dict[int, List[Tuple[int, int]]] = {
            s: [(t, robots) for (t, robots) in edges.get(s, []) if t in bad_states]
            for s in bad_states
        }
        components = tarjan_scc(
            {s: [t for (t, _) in outgoing] for s, outgoing in restricted.items()}
        )
        for component in components:
            members = set(component)
            covered = 0
            has_internal_edge = False
            for member in component:
                for target, robots in restricted.get(member, []):
                    if target in members:
                        # Self-loops and longer cycles both count.
                        has_internal_edge = True
                        covered |= robots
            if has_internal_edge and covered == all_robots:
                return True
        return False

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve(self, initial: Optional[Configuration] = None) -> GameResult:
        """Search for a candidate algorithm surviving the adversary.

        Args:
            initial: starting configuration; when omitted, a candidate must
                survive from *some* configuration (the search tries every
                configuration class), matching the paper's statements
                "there is no algorithm ... for any initial configuration".
        """
        if initial is not None:
            starts = [initial]
        else:
            starts = enumerate_configurations(self.n, self.k)
        checked = 0
        for assignment in self._candidate_assignments():
            checked += 1
            for start in starts:
                if not self._adversary_wins(start, assignment):
                    return GameResult(
                        n=self.n,
                        k=self.k,
                        verdict=GameVerdict.CANDIDATE_FOUND,
                        algorithms_checked=checked,
                        witness=dict(assignment),
                    )
        return GameResult(
            n=self.n, k=self.k, verdict=GameVerdict.IMPOSSIBLE, algorithms_checked=checked
        )


def searching_game_verdict(
    n: int, k: int, *, max_classes: int = 12, max_states: int = 40000
) -> GameResult:
    """Convenience wrapper: build a solver and solve the ``(k, n)`` instance."""
    solver = SearchGameSolver(n, k, max_classes=max_classes, max_states=max_states)
    return solver.solve()
