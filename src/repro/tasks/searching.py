"""Graph searching (edge clearing) on rings.

The paper uses *mixed graph searching*: initially every edge is
contaminated; an edge becomes clear when a robot traverses it or when
both of its endpoints are simultaneously occupied; a clear edge is
instantaneously *recontaminated* whenever there is a robot-free path
connecting one of its endpoints to an endpoint of a contaminated edge.
The perpetual exclusive graph searching task requires every edge to be
cleared infinitely often while the exclusivity property always holds.

:class:`SearchState` implements the clearing/recontamination state
machine for an arbitrary set of simultaneous moves on edge sets — the
independent, set-based oracle.  :class:`RingSearchDynamics` is the same
dynamics on ``n``-bit masks; :class:`SearchingMonitor` runs it alongside
a simulation and records, for every edge, the steps at which it was
clear — the raw data used to verify perpetual clearing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.configuration import Configuration
from ..core.ring import Edge, Ring, edge
from ..simulator.trace import MoveRecord
from .base import Monitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import Simulator

__all__ = [
    "ClearEdgeView",
    "SearchState",
    "SearchingMonitor",
    "advance_clear_edges",
    "guarded_edges",
    "ring_search_dynamics",
    "RingSearchDynamics",
]


def guarded_edges(ring: Ring, configuration: Configuration) -> Set[Edge]:
    """Edges whose both endpoints are occupied (always clear)."""
    return {
        (u, v)
        for u, v in ring.edges()
        if configuration.is_occupied(u) and configuration.is_occupied(v)
    }


def advance_clear_edges(
    ring: Ring,
    clear: Set[Edge],
    traversed: Set[Edge],
    configuration: Configuration,
) -> FrozenSet[Edge]:
    """One step of the mixed-search clear/recontaminate dynamics (pure function).

    Args:
        ring: the ring.
        clear: edges clear before the step.
        traversed: edges traversed by robots during the step.
        configuration: configuration *after* the step.

    Returns:
        The set of clear edges after clearing by traversal/guarding and
        instantaneous recontamination along robot-free paths.
    """
    updated: Set[Edge] = set(clear) | set(traversed) | guarded_edges(ring, configuration)
    contaminated = set(ring.edges()) - updated
    if not contaminated:
        return frozenset(updated)
    frontier = {node for e in contaminated for node in e if not configuration.is_occupied(node)}
    reachable: Set[int] = set()
    stack = list(frontier)
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        for neighbor in ring.neighbors(node):
            if neighbor not in reachable and not configuration.is_occupied(neighbor):
                stack.append(neighbor)
    updated -= {e for e in updated if e[0] in reachable or e[1] in reachable}
    return frozenset(updated)


class RingSearchDynamics:
    """Bitmask implementation of the mixed-search dynamics on one ring.

    Edge ``i`` is the edge between nodes ``i`` and ``(i + 1) % n`` — the
    same normalised order as :meth:`repro.core.ring.Ring.edges` — and
    edge/node sets are ``n``-bit masks.  The key observation making the
    dynamics a handful of integer operations: contamination spreads only
    through robot-free nodes, and the robot-free nodes split into maximal
    *intervals* bounded by occupied nodes, so after a step

    * every *guarded* edge (both endpoints occupied) is clear, and
    * the edges touching one robot-free interval survive **iff** every
      one of them was cleared or guarded this step — a single
      contaminated edge recontaminates the whole interval, and nothing
      outside it, because occupied endpoints block the spread.

    Interval decompositions are memoised per support mask and
    ``(support, updated)`` advances per pair, so its users — the
    exhaustive explorers (:mod:`repro.modelcheck.frontier`,
    :mod:`repro.analysis.game`) and every :class:`SearchingMonitor` of a
    simulation — pay a dictionary hit per revisited transition instead
    of the set-algebra of :func:`advance_clear_edges`.  Both
    implementations are cross-checked by property tests.
    """

    __slots__ = ("n", "all_edges", "_support_data", "_advance_memo")

    def __init__(self, n: int) -> None:
        if n < 3:
            raise ValueError(f"a ring needs at least 3 nodes, got n={n}")
        self.n = n
        self.all_edges = (1 << n) - 1
        self._support_data: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self._advance_memo: Dict[Tuple[int, int], int] = {}

    def support_data(self, support_mask: int) -> Tuple[int, Tuple[int, ...]]:
        """``(guarded_mask, interval_edge_masks)`` for one occupied set."""
        cached = self._support_data.get(support_mask)
        if cached is not None:
            return cached
        n = self.n
        # guarded bit i: nodes i and (i + 1) % n both occupied.
        neighbor = ((support_mask >> 1) | ((support_mask & 1) << (n - 1)))
        guarded = support_mask & neighbor
        intervals = []
        if support_mask != (1 << n) - 1 and support_mask != 0:
            empty = [v for v in range(n) if not (support_mask >> v) & 1]
            runs: List[List[int]] = []
            for v in empty:
                if runs and runs[-1][-1] == v - 1:
                    runs[-1].append(v)
                else:
                    runs.append([v])
            # Cyclic wrap: a run ending at n - 1 joins one starting at 0.
            if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
                runs[-1].extend(runs.pop(0))
            for run in runs:
                mask = 1 << ((run[0] - 1) % n)  # edge into the interval
                for v in run:
                    mask |= 1 << v  # edge leaving node v clockwise
                intervals.append(mask)
        data = (guarded, tuple(intervals))
        self._support_data[support_mask] = data
        return data

    def advance(self, support_mask: int, pre_mask: int) -> int:
        """Clear edges after a step: ``pre_mask`` is ``clear | traversed``.

        Guarded edges of the post-step support are added automatically;
        the result is the mask equivalent of :func:`advance_clear_edges`.
        """
        key = (support_mask, pre_mask)
        cached = self._advance_memo.get(key)
        if cached is not None:
            return cached
        guarded, intervals = self.support_data(support_mask)
        updated = pre_mask | guarded
        clear = guarded
        for interval in intervals:
            if updated & interval == interval:
                clear |= interval
        self._advance_memo[key] = clear
        return clear

    def initial_clear(self, support_mask: int) -> int:
        """Clear mask of a starting configuration (guarded edges only)."""
        return self.advance(support_mask, 0)

    @staticmethod
    def edges_to_mask(edges: "Iterable[Edge]", n: int) -> int:
        """Mask of normalised edges (edge ``(u, v)`` has index ``u``)."""
        mask = 0
        for u, _ in edges:
            mask |= 1 << u
        return mask

    def mask_to_edges(self, mask: int) -> FrozenSet[Edge]:
        """Normalised edge set of a mask (inverse of :meth:`edges_to_mask`)."""
        n = self.n
        return frozenset(
            (i, (i + 1) % n) for i in range(n) if (mask >> i) & 1
        )


_DYNAMICS_INSTANCES: Dict[int, RingSearchDynamics] = {}


def ring_search_dynamics(n: int) -> RingSearchDynamics:
    """The process-wide shared :class:`RingSearchDynamics` for ``n``.

    The dynamics are pure functions of the ring size, so sharing one
    instance lets the interval-decomposition and advance memos warm once
    per process instead of once per explorer/solver instance.
    """
    dynamics = _DYNAMICS_INSTANCES.get(n)
    if dynamics is None:
        if len(_DYNAMICS_INSTANCES) > 64:
            _DYNAMICS_INSTANCES.pop(next(iter(_DYNAMICS_INSTANCES)))
        dynamics = RingSearchDynamics(n)
        _DYNAMICS_INSTANCES[n] = dynamics
    return dynamics


class SearchState:
    """Clear/contaminated status of every edge of a ring.

    Args:
        ring: the ring being searched.
        configuration: initial robot placement; edges with both endpoints
            occupied start clear (they are guarded), every other edge
            starts contaminated.
    """

    def __init__(self, ring: Ring, configuration: Configuration) -> None:
        self._ring = ring
        self._clear: Set[Edge] = set()
        self._apply_static_clears(configuration)
        self._apply_recontamination(configuration)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def ring(self) -> Ring:
        """The underlying ring."""
        return self._ring

    @property
    def clear_edges(self) -> FrozenSet[Edge]:
        """Edges currently clear."""
        return frozenset(self._clear)

    @property
    def contaminated_edges(self) -> FrozenSet[Edge]:
        """Edges currently contaminated."""
        return frozenset(set(self._ring.edges()) - self._clear)

    @property
    def all_clear(self) -> bool:
        """Whether the whole ring is simultaneously clear."""
        return len(self._clear) == self._ring.n

    def is_clear(self, u: int, v: int) -> bool:
        """Whether the edge between adjacent nodes ``u`` and ``v`` is clear."""
        return self._ring.edge_between(u, v) in self._clear

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def apply_moves(self, moves: Sequence[MoveRecord], configuration: Configuration) -> None:
        """Update the state after a set of simultaneous moves.

        Args:
            moves: the moves executed in this step (their traversed edges
                become clear).
            configuration: the configuration *after* the moves.
        """
        traversed = {
            self._ring.edge_between(move.source, move.target)
            for move in moves
            if move.source != move.target
        }
        self._clear = set(advance_clear_edges(self._ring, self._clear, traversed, configuration))

    def _apply_static_clears(self, configuration: Configuration) -> None:
        self._clear |= guarded_edges(self._ring, configuration)

    def _apply_recontamination(self, configuration: Configuration) -> None:
        """Spread contamination through robot-free nodes (fixed point)."""
        self._clear = set(advance_clear_edges(self._ring, self._clear, set(), configuration))


class ClearEdgeView:
    """Live read view of a :class:`SearchingMonitor`'s clear-edge mask.

    Answers the query surface of :class:`SearchState` (``clear_edges``,
    ``contaminated_edges``, ``all_clear``, ``is_clear``) from the
    monitor's current mask, so it always reflects the latest step.
    """

    __slots__ = ("_monitor",)

    def __init__(self, monitor: "SearchingMonitor") -> None:
        self._monitor = monitor

    @property
    def ring(self) -> Ring:
        """The underlying ring."""
        return self._monitor._ring

    @property
    def clear_edges(self) -> FrozenSet[Edge]:
        """Edges currently clear."""
        monitor = self._monitor
        return monitor._dynamics.mask_to_edges(monitor._mask)

    @property
    def contaminated_edges(self) -> FrozenSet[Edge]:
        """Edges currently contaminated."""
        dynamics = self._monitor._dynamics
        return dynamics.mask_to_edges(dynamics.all_edges & ~self._monitor._mask)

    @property
    def all_clear(self) -> bool:
        """Whether the whole ring is simultaneously clear."""
        monitor = self._monitor
        return monitor._mask == monitor._dynamics.all_edges

    def is_clear(self, u: int, v: int) -> bool:
        """Whether the edge between adjacent nodes ``u`` and ``v`` is clear."""
        monitor = self._monitor
        return bool((monitor._mask >> monitor._ring.edge_between(u, v)[0]) & 1)


class SearchingMonitor(Monitor):
    """Record per-edge clearing history during a simulation.

    The live state is one clear-edge bitmask (bit ``i`` is the edge
    ``(i, (i + 1) % n)``), advanced every step by the process-wide
    :func:`ring_search_dynamics` kernel — the mask equivalent of
    :func:`advance_clear_edges`.  Recording is O(1) per step: the
    history is kept as runs ``[first_step, last_step, mask]`` of
    consecutive steps sharing one mask, and the per-edge views below are
    derived from the runs when they are queried.

    Attributes collected:

    * :attr:`clear_history` — for every edge, the list of steps at which
      the edge was clear (step ``-1`` denotes the initial configuration);
    * :attr:`all_clear_steps` — steps at which the whole ring was
      simultaneously clear;
    * :attr:`moves_to_first_all_clear` — robot moves executed up to and
      including the first all-clear step (``0`` when the start is
      already all-clear, ``None`` while the ring never was).
    """

    def __init__(self) -> None:
        self._ring: Ring | None = None
        self._dynamics: RingSearchDynamics | None = None
        self._mask = 0
        self._configuration: Optional[Configuration] = None
        self._support_masks: Dict[Tuple[int, ...], int] = {}
        self._runs: List[List[int]] = []
        self._moves = 0
        self.all_clear_steps: List[int] = []
        self.moves_to_first_all_clear: Optional[int] = None

    @property
    def state(self) -> ClearEdgeView:
        """The live search state (available once the simulation started)."""
        if self._dynamics is None:
            raise RuntimeError("SearchingMonitor used before the simulation started")
        return ClearEdgeView(self)

    def _support_mask(self, configuration: Configuration) -> int:
        counts = configuration.counts
        mask = self._support_masks.get(counts)
        if mask is None:
            mask = 0
            for node in configuration.support:
                mask |= 1 << node
            self._support_masks[counts] = mask
        return mask

    def on_start(self, engine: "Simulator") -> None:
        """Initialise edge-contamination state from the starting configuration."""
        n = engine.ring_size
        self._ring = Ring(n)
        self._dynamics = ring_search_dynamics(n)
        self._support_masks = {}
        self._runs = []
        self._moves = 0
        self.all_clear_steps = []
        self.moves_to_first_all_clear = None
        self._configuration = engine.configuration
        self._mask = self._dynamics.initial_clear(self._support_mask(self._configuration))
        self._record(-1)

    def on_step(
        self,
        engine: "Simulator",
        moves: Sequence[MoveRecord],
        configuration: Configuration,
    ) -> None:
        """Propagate contamination through the executed moves and record it."""
        if not moves and configuration is self._configuration:
            # The mask is already advance(support, ...) of this very
            # support, and advance(s, advance(s, m)) == advance(s, m):
            # guarded edges and whole intervals are a fixed point.
            self._record(engine.step_count - 1)
            return
        dynamics = self._dynamics
        if dynamics is None:
            raise RuntimeError("SearchingMonitor used before the simulation started")
        self._moves += len(moves)
        traversed = 0
        for move in moves:
            if move.source != move.target:
                traversed |= 1 << edge(move.source, move.target, dynamics.n)[0]
        self._mask = dynamics.advance(
            self._support_mask(configuration), self._mask | traversed
        )
        self._configuration = configuration
        self._record(engine.step_count - 1)

    def _record(self, step: int) -> None:
        mask = self._mask
        runs = self._runs
        if runs and runs[-1][2] == mask and runs[-1][1] == step - 1:
            runs[-1][1] = step
        else:
            runs.append([step, step, mask])
        if mask == self._dynamics.all_edges:
            if not self.all_clear_steps:
                self.moves_to_first_all_clear = self._moves
            self.all_clear_steps.append(step)

    # ------------------------------------------------------------------ #
    # verification helpers (derived from the recorded runs)
    # ------------------------------------------------------------------ #
    def _edges(self) -> List[Edge]:
        return self._ring.edges() if self._ring is not None else []

    @property
    def clear_history(self) -> Dict[Edge, List[int]]:
        """For every edge, the steps at which it was clear, in order."""
        history: Dict[Edge, List[int]] = {e: [] for e in self._edges()}
        edges = list(history.values())
        for first, last, mask in self._runs:
            steps = range(first, last + 1)
            for i, steps_of_edge in enumerate(edges):
                if (mask >> i) & 1:
                    steps_of_edge.extend(steps)
        return history

    def clearing_counts(self) -> Dict[Edge, int]:
        """Number of steps at which each edge was observed clear."""
        edges = self._edges()
        counts = [0] * len(edges)
        for first, last, mask in self._runs:
            length = last - first + 1
            for i in range(len(edges)):
                if (mask >> i) & 1:
                    counts[i] += length
        return dict(zip(edges, counts))

    def edges_never_cleared(self) -> Tuple[Edge, ...]:
        """Edges that were never clear during the run."""
        ever = 0
        for _, _, mask in self._runs:
            ever |= mask
        return tuple(e for i, e in enumerate(self._edges()) if not (ever >> i) & 1)

    def every_edge_cleared(self, minimum: int = 1) -> bool:
        """Whether every edge was clear during at least ``minimum`` steps."""
        return all(count >= minimum for count in self.clearing_counts().values())

    def last_clear_step(self) -> Dict[Edge, int]:
        """Most recent step at which each edge was clear (``-2`` if never)."""
        edges = self._edges()
        last_steps = [-2] * len(edges)
        for _, last, mask in self._runs:
            for i in range(len(edges)):
                if (mask >> i) & 1:
                    last_steps[i] = last
        return dict(zip(edges, last_steps))
