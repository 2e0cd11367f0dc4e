"""Packed-state frontier engine: the model checker's exploration core.

A straightforward explorer keys its visited set by tuples of tuples and
re-derives dihedral canonical forms and clear-edge sets per visit, which
makes exhaustive exploration allocation-bound.  This module avoids that
throughout:

* a system state ``(counts, phase, pending)`` is **one Python int** —
  the occupancy vector packed big-endian in ``k.bit_length()``-bit
  digits (:class:`repro.core.cyclic.PackedSequenceCodec`), the searching
  task's clear-edge set as an ``n``-bit field above it, and the pending
  set as a reserved zero field (always empty under the atomic SSYNC /
  sequential adversaries; an asynchronous extension widens the field
  without changing any signature);
* dihedral canonicalisation (terminal tasks) is a table-driven min-scan
  over packed ints — rotations are two shifts and a mask, reflections
  one digit-reversal through the per-``n`` permutation tables of
  :func:`repro.core.symmetry.dihedral_permutation_tables`;
* successor generation is the compact transition relation of
  :meth:`repro.simulator.branching.BranchingDriver.successors_compact`
  (plain tuples, memoised per occupancy vector) and the searching task's
  clear/recontaminate dynamics are the interval-mask
  :class:`repro.tasks.searching.RingSearchDynamics`;
* BFS, SCC-based fair-livelock detection and witness reconstruction all
  run over int-keyed dicts.

**Livelock pre-proof.**  Under the SSYNC adversary the fair-trap search
first clears whole regions ("edge i never clear" for searching, "goal
not reached" for reach tasks) with an emptiness proof on per-state
region bitmasks, so the per-region SCC pass runs only where a trap is
still possible (see :meth:`FrontierExplorer._candidate_regions`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.enumeration import iter_configurations
from ..analysis.graphs import tarjan_scc
from ..core.cyclic import packed_codec
from ..core.errors import (
    AlgorithmPreconditionError,
    InvalidConfigurationError,
    UnsupportedParametersError,
)
from ..simulator.branching import (
    COMPACT_COLLISION,
    COMPACT_FULL,
    COMPACT_MOVED,
    BranchingDriver,
    CompactTransition,
    NodeActivation,
)
from ..tasks.searching import ring_search_dynamics
from .results import Verdict, Witness, WitnessStep, ModelCheckResult
from .tasks import TaskSpec

__all__ = ["CellCache", "FrontierExplorer", "cell_cache"]

Counts = Tuple[int, ...]

#: Exceptions an algorithm may raise on a reachable state; raised while
#: *expanding* a state they become ``ERROR`` verdicts (with a path
#: witness) instead of crashes.  One deliberate exception: the
#: goal-*stability* probe of a reach task lets them propagate
#: (unreachable for the registered tasks, whose goal configurations the
#: algorithms always accept).
_ALGORITHM_ERRORS = (
    AlgorithmPreconditionError,
    UnsupportedParametersError,
    InvalidConfigurationError,
)

#: Name -> class map used to re-raise a recorded algorithm error with
#: its original type and message.
_ERRORS_BY_NAME = {cls.__name__: cls for cls in _ALGORITHM_ERRORS}


# --------------------------------------------------------------------- #
# persistent per-cell caches (ROADMAP: cross-step class->plan cache)
# --------------------------------------------------------------------- #
class CellCache:
    """Process-wide memo block for one ``(task, n, k, adversary)`` cell.

    Every entry is a pure function of the cell — packed codes, canonical
    forms, and above all the compact successor *plans* produced by
    :meth:`~repro.simulator.branching.BranchingDriver.successors_compact`
    — so the block is safely shared across explorer instances and
    repeated ``check_cell`` calls.  The first exploration of a cell pays
    for plan computation once and every later run (warm service process,
    benchmark repeat, witness replay) starts with the full expansion
    table.
    """

    __slots__ = ("counts_of", "pack", "canon", "expansions", "initials")

    def __init__(self) -> None:
        self.counts_of: Dict[int, Counts] = {}
        self.pack: Dict[Counts, Tuple[int, int]] = {}
        self.canon: Dict[int, int] = {}
        self.expansions: Dict[int, Tuple[str, object, object]] = {}
        self.initials: Optional[Tuple[Tuple[int, ...], str]] = None


_CELL_CACHES: Dict[Tuple[str, int, int, str], CellCache] = {}
_CELL_CACHE_LIMIT = 16
_CELL_CACHES_LOCK = threading.Lock()

#: (n, k) -> (initial occupancy vectors, provenance note), shared by
#: every task; purely combinatorial.
_INITIAL_CONFIGS: Dict[Tuple[int, int], Tuple[Tuple[Counts, ...], str]] = {}


def cell_cache(task: str, n: int, k: int, adversary: str) -> CellCache:
    """The shared :class:`CellCache` of a registered cell (LRU-evicted)."""
    key = (task, n, k, adversary)
    with _CELL_CACHES_LOCK:
        cache = _CELL_CACHES.get(key)
        if cache is None:
            while len(_CELL_CACHES) >= _CELL_CACHE_LIMIT:
                _CELL_CACHES.pop(next(iter(_CELL_CACHES)))
            cache = CellCache()
            _CELL_CACHES[key] = cache
        else:
            # Re-insert to keep eviction order least-recently-used.
            _CELL_CACHES.pop(key)
            _CELL_CACHES[key] = cache
    return cache


def _initial_configurations(n: int, k: int) -> Tuple[Tuple[Counts, ...], str]:
    """Initial occupancy vectors of a cell plus the provenance note."""
    key = (n, k)
    entry = _INITIAL_CONFIGS.get(key)
    if entry is None:
        rigid = [c.counts for c in iter_configurations(n, k, rigid_only=True)]
        if rigid:
            configurations = rigid
            note = f"{len(rigid)} rigid initial configuration class(es)"
        else:
            configurations = [c.counts for c in iter_configurations(n, k)]
            note = (
                "no rigid configuration exists for this cell; starting from all "
                f"{len(configurations)} configuration class(es)"
            )
        entry = (tuple(configurations), note)
        if len(_INITIAL_CONFIGS) > 64:
            _INITIAL_CONFIGS.pop(next(iter(_INITIAL_CONFIGS)))
        _INITIAL_CONFIGS[key] = entry
    return entry


# --------------------------------------------------------------------- #
# the explorer
# --------------------------------------------------------------------- #
class FrontierExplorer:
    """Explore one cell's reachable graph over packed integer states.

    Implements the verdict semantics described in the
    :mod:`repro.modelcheck.checker` module docstring (including the
    fairness discussion); every note, statistic and witness matches the
    golden verdict corpus byte for byte.

    Args:
        spec: task adapter of the cell.
        n: ring size.
        k: number of robots.
        adversary: ``"ssync"`` or ``"sequential"``.
        max_states: exploration cap; exceeding it yields ``UNKNOWN``.
        driver: the branching driver to expand with (shared with the
            owning :class:`~repro.modelcheck.checker.ModelChecker` so
            witness replay reuses the same caches).
        persistent: bind the packing/canonicalisation/expansion memos to
            the process-wide :func:`cell_cache` of the cell instead of
            instance-local dicts, so successor plans amortise across
            explorations (registered tasks only — a custom adapter's
            plans must not leak into the shared block).
    """

    def __init__(
        self,
        spec: TaskSpec,
        n: int,
        k: int,
        adversary: str,
        max_states: int,
        driver: BranchingDriver,
        persistent: bool = False,
    ) -> None:
        self.spec = spec
        self.n = n
        self.k = k
        self.adversary = adversary
        self.max_states = max_states
        self.driver = driver
        self.codec = packed_codec(n, k)
        self.counts_bits = self.codec.total_bits
        self.counts_mask = self.codec.full_mask
        self.dynamics = ring_search_dynamics(n) if spec.kind == "search" else None
        shared = cell_cache(spec.task, n, k, adversary) if persistent else CellCache()
        self._cell = shared
        #: packed counts code -> counts tuple of every discovered vector.
        self._counts_of: Dict[int, Counts] = shared.counts_of
        #: counts tuple -> (packed code, support mask).
        self._pack_memo: Dict[Counts, Tuple[int, int]] = shared.pack
        #: packed concrete code -> packed canonical code (canonical tasks).
        self._canon_memo: Dict[int, int] = shared.canon
        #: packed counts code -> ("ok", records, None) | ("error", name, msg).
        self._expansions: Dict[int, Tuple[str, object, object]] = shared.expansions

    # ------------------------------------------------------------------ #
    # packing helpers
    # ------------------------------------------------------------------ #
    def _pack_counts(self, counts: Counts) -> Tuple[int, int]:
        """``(packed code, support mask)`` of an occupancy vector."""
        cached = self._pack_memo.get(counts)
        if cached is not None:
            return cached
        code = self.codec.pack(counts)
        support = 0
        for node, c in enumerate(counts):
            if c:
                support |= 1 << node
        entry = (code, support)
        self._pack_memo[counts] = entry
        self._counts_of.setdefault(code, counts)
        return entry

    def _canonical_code(self, code: int) -> int:
        canon = self._canon_memo.get(code)
        if canon is None:
            canon = self.codec.canonical(code)
            self._canon_memo[code] = canon
            if canon not in self._counts_of:
                self._counts_of[canon] = self.codec.unpack(canon)
        return canon

    def _counts_code(self, state: int) -> int:
        return state & self.counts_mask if self.spec.kind == "search" else state

    def _support_of(self, code: int) -> int:
        return self._pack_counts(self._counts_of[code])[1]

    def _make_initial_state(self, counts: Counts) -> int:
        code, support = self._pack_counts(counts)
        if self.spec.kind == "search":
            return (self.dynamics.initial_clear(support) << self.counts_bits) | code
        if self.spec.canonical:
            return self._canonical_code(code)
        return code

    def _successor_state(self, state: int, record: CompactTransition) -> int:
        code, support = self._pack_counts(record[1])
        if self.spec.kind == "search":
            clear = state >> self.counts_bits
            new_clear = self.dynamics.advance(support, clear | record[2])
            return (new_clear << self.counts_bits) | code
        if self.spec.canonical:
            return self._canonical_code(code)
        return code

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def _expansion(self, code: int) -> Tuple[str, object, object]:
        entry = self._expansions.get(code)
        if entry is None:
            counts = self._counts_of[code]
            try:
                entry = ("ok", self.driver.successors_compact(counts, self.adversary), None)
            except _ALGORITHM_ERRORS as exc:
                entry = ("error", type(exc).__name__, str(exc))
            self._expansions[code] = entry
        return entry

    def _records(self, code: int) -> Tuple[CompactTransition, ...]:
        """Successor records of a vector known to expand cleanly."""
        entry = self._expansion(code)
        if entry[0] != "ok":  # pragma: no cover - defensive
            raise _ERRORS_BY_NAME[entry[1]](entry[2])
        return entry[1]

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, result: ModelCheckResult) -> None:
        """Explore the cell and fill ``result`` (verdict, stats, witness)."""
        initials, start_note = self._initial_states()
        result.notes.append(start_note)
        result.num_initial = len(initials)
        if not initials:
            result.verdict = Verdict.ERROR
            result.notes.append("no initial configurations for this cell")
            return

        spec = self.spec
        is_reach = spec.kind == "reach"
        parents: Dict[int, Optional[Tuple[int, int]]] = {}
        out_edges: Dict[int, List[Tuple[int, int]]] = {}
        goal_states: Set[int] = set()
        queue: deque = deque()
        for state in initials:
            if state not in parents:
                parents[state] = None
                queue.append(state)

        num_transitions = 0
        while queue:
            state = queue.popleft()
            code = self._counts_code(state)
            counts = self._counts_of[code]
            if is_reach and self._is_goal(counts):
                # Absorbing goal: verify stability instead of expanding.
                if self._goal_is_stable(code):
                    goal_states.add(state)
                    out_edges[state] = []
                    continue
                result.notes.append(
                    f"goal configuration {list(counts)} is not stable; treated as non-goal"
                )
            entry = self._expansion(code)
            if entry[0] != "ok":
                result.verdict = Verdict.ERROR
                result.witness = self._path_witness(
                    parents, state, extra=None,
                    note=f"algorithm rejected a reachable state: {entry[1]}: {entry[2]}",
                )
                result.num_states = len(parents)
                result.num_transitions = num_transitions
                return
            records: Tuple[CompactTransition, ...] = entry[1]

            edges_here: List[Tuple[int, int]] = []
            for index, record in enumerate(records):
                num_transitions += 1
                if spec.exclusive and record[4] & COMPACT_COLLISION:
                    result.verdict = Verdict.COLLISION
                    result.witness = self._path_witness(
                        parents, state, extra=record,
                        note="exclusivity violated: two robots meet on one node",
                    )
                    result.num_states = len(parents)
                    result.num_transitions = num_transitions
                    return
                successor = self._successor_state(state, record)
                edges_here.append((successor, index))
                if successor not in parents:
                    parents[successor] = (state, index)
                    if len(parents) > self.max_states:
                        result.verdict = Verdict.UNKNOWN
                        result.notes.append(
                            f"state cap exceeded ({self.max_states}); verdict unknown"
                        )
                        result.num_states = len(parents)
                        result.num_transitions = num_transitions
                        return
                    queue.append(successor)
            out_edges[state] = edges_here

        result.num_states = len(parents)
        result.num_transitions = num_transitions

        livelock = self._find_livelock(out_edges, goal_states)
        if livelock is not None:
            anchor, cycle_edges, note = livelock
            result.verdict = Verdict.LIVELOCK
            result.witness = self._livelock_witness(parents, anchor, cycle_edges, note)
            return
        result.verdict = Verdict.SOLVED

    def _initial_states(self) -> Tuple[List[int], str]:
        """Packed starting states (with duplicates) plus a provenance note."""
        cached = self._cell.initials
        if cached is None:
            configurations, note = _initial_configurations(self.n, self.k)
            states = tuple(self._make_initial_state(counts) for counts in configurations)
            cached = (states, note)
            self._cell.initials = cached
        return list(cached[0]), cached[1]

    def _is_goal(self, counts: Counts) -> bool:
        return self.spec.goal is not None and self.spec.goal(
            self.driver.configuration(counts)
        )

    def _goal_is_stable(self, code: int) -> bool:
        """Whether every adversary step keeps a goal configuration in place."""
        return all(not (record[4] & COMPACT_MOVED) for record in self._records(code))

    # ------------------------------------------------------------------ #
    # livelock detection
    # ------------------------------------------------------------------ #
    def _find_livelock(
        self,
        out_edges: Dict[int, List[Tuple[int, int]]],
        goal_states: Set[int],
    ) -> Optional[Tuple[int, List[Tuple[int, CompactTransition]], str]]:
        """Search for a reachable fair loop violating the task.

        Returns ``(anchor_state, cycle_edges, note)`` where the cycle
        edges start and end at the anchor, or ``None``.
        """
        kind = self.spec.kind
        n = self.n
        if kind in ("reach", "search") and self.adversary == "ssync":
            candidates = self._candidate_regions(out_edges, goal_states)
        else:
            candidates = -1  # every region
        if kind == "reach":
            if not candidates & 1:
                return None
            region = {s for s in out_edges if s not in goal_states}
            return self._fair_trap(
                out_edges, region, note="fair loop never reaches the goal configuration"
            )
        if kind == "search":
            bits = self.counts_bits
            for i in range(n):
                if not (candidates >> i) & 1:
                    continue
                ring_edge = (i, (i + 1) % n)
                region = {s for s in out_edges if not (s >> (bits + i)) & 1}
                trap = self._fair_trap(
                    out_edges,
                    region,
                    note=f"fair loop on which edge {ring_edge} is never clear",
                )
                if trap is not None:
                    return trap
            return None
        # explore: a fair loop in which some node is never occupied.
        components = tarjan_scc(
            {s: [t for (t, _) in targets] for s, targets in out_edges.items()}
        )
        for component in components:
            members = set(component)
            internal = [
                (s, t, index)
                for s in component
                for (t, index) in out_edges.get(s, [])
                if t in members
            ]
            if not internal or not self._is_fair(component, internal):
                continue
            covered = 0
            for s in component:
                covered |= self._support_of(self._counts_code(s))
            missing = [v for v in range(n) if not (covered >> v) & 1]
            if missing:
                anchor, cycle = self._anchored_cycle(component, internal)
                return anchor, cycle, (
                    f"fair loop on which node(s) {missing} are never visited"
                )
        return None

    def _candidate_regions(
        self,
        out_edges: Dict[int, List[Tuple[int, int]]],
        goal_states: Set[int],
    ) -> int:
        """Bitmask of the regions that may hold an SSYNC fair trap.

        Bit ``i`` of a searching state's region mask is set when ring
        edge ``i`` is not clear in it; a reach task has one region, the
        non-goal states.  A fair trap is an SCC of the region with an
        internal edge and, under SSYNC, a full (activate-everybody)
        internal edge.  So its region has an in-region full edge *and*
        either an in-region cycle through two or more states or a full
        self-loop.  Regions failing that test are trap-free and the
        caller skips their SCC pass; the others keep their order, so
        the witness is unchanged.

        The cycle test is the greatest fixed point of "starts an
        arbitrarily long in-region path" over non-self edges, all
        regions at once on int bitmasks, driven by a predecessor
        worklist.
        """
        if self.spec.kind == "search":
            bits = self.counts_bits
            ring_mask = (1 << self.n) - 1
            reg = {s: ~(s >> bits) & ring_mask for s in out_edges}
        else:
            reg = {s: 0 if s in goal_states else 1 for s in out_edges}
        full_reg = full_self_reg = 0
        successors: Dict[int, Dict[int, int]] = {}
        predecessors: Dict[int, List[int]] = {s: [] for s in out_edges}
        for s, edges in out_edges.items():
            region_s = reg[s]
            targets: Dict[int, int] = {}
            successors[s] = targets
            if not region_s or not edges:
                continue
            records = self._records(self._counts_code(s))
            for t, index in edges:
                shared = region_s & reg[t]
                if not shared:
                    continue
                if records[index][4] & COMPACT_FULL:
                    full_reg |= shared
                    if t == s:
                        full_self_reg |= shared
                if t != s and t not in targets:
                    targets[t] = shared
                    predecessors[t].append(s)
        if not full_reg:
            return 0
        alive = dict(reg)
        pending = [s for s in out_edges if reg[s]]
        queued = set(pending)
        while pending:
            s = pending.pop()
            queued.discard(s)
            before = alive[s]
            reach = 0
            for t, shared in successors[s].items():
                reach |= shared & alive[t]
            after = before & reach
            if after != before:
                alive[s] = after
                for p in predecessors[s]:
                    if p not in queued and alive[p]:
                        queued.add(p)
                        pending.append(p)
        cycle_reg = 0
        for mask in alive.values():
            cycle_reg |= mask
        return full_reg & (cycle_reg | full_self_reg)

    def _fair_trap(
        self,
        out_edges: Dict[int, List[Tuple[int, int]]],
        region: Set[int],
        note: str,
    ) -> Optional[Tuple[int, List[Tuple[int, CompactTransition]], str]]:
        if not region:
            return None
        # BFS discovery order: the chosen witness loop must be a
        # function of the graph, not of hash order.
        restricted = {
            s: [t for (t, _) in out_edges[s] if t in region]
            for s in out_edges
            if s in region
        }
        for component in tarjan_scc(restricted):
            members = set(component)
            internal = [
                (s, t, index)
                for s in component
                for (t, index) in out_edges.get(s, [])
                if t in members
            ]
            if internal and self._is_fair(component, internal):
                anchor, cycle = self._anchored_cycle(component, internal)
                return anchor, cycle, note
        return None

    def _edge_record(self, state: int, index: int) -> CompactTransition:
        return self._records(self._counts_code(state))[index]

    def _is_fair(
        self,
        component: List[int],
        internal: List[Tuple[int, int, int]],
    ) -> bool:
        if self.adversary == "ssync":
            return any(
                self._edge_record(s, index)[4] & COMPACT_FULL
                for (s, _, index) in internal
            )
        # Sequential coverage test: from every loop state, every occupied
        # node can be activated without leaving the loop (see the checker
        # module docstring for the fairness caveat).
        by_state: Dict[int, int] = {}
        for s, _, index in internal:
            by_state[s] = by_state.get(s, 0) | self._edge_record(s, index)[3]
        for s in component:
            occupied = self._support_of(self._counts_code(s))
            if occupied & ~by_state.get(s, 0):
                return False
        return True

    def _anchored_cycle(
        self,
        component: List[int],
        internal: List[Tuple[int, int, int]],
    ) -> Tuple[int, List[Tuple[int, CompactTransition]]]:
        """A concrete cycle through the component, starting at its anchor.

        The cycle opens with a fairness-witness edge (a full step under
        SSYNC when one exists) and closes back to the anchor along
        internal edges.
        """
        if self.adversary == "ssync":
            first = next(
                (
                    e
                    for e in internal
                    if self._edge_record(e[0], e[2])[4] & COMPACT_FULL
                ),
                internal[0],
            )
        else:
            first = internal[0]
        anchor, after_first, first_index = first
        first_record = self._edge_record(anchor, first_index)
        adjacency: Dict[int, List[Tuple[int, CompactTransition]]] = {}
        for s, t, index in internal:
            adjacency.setdefault(s, []).append((t, self._edge_record(s, index)))
        # BFS back to the anchor inside the component.
        back: Dict[int, Optional[Tuple[int, CompactTransition]]] = {after_first: None}
        queue: deque = deque([after_first])
        while queue:
            s = queue.popleft()
            if s == anchor:
                break
            for t, record in adjacency.get(s, []):
                if t not in back:
                    back[t] = (s, record)
                    queue.append(t)
        path: List[Tuple[int, CompactTransition]] = []
        cursor = anchor
        while cursor != after_first:
            previous = back[cursor]
            assert previous is not None  # anchor is reachable: the component is an SCC
            prev_state, record = previous
            path.append((cursor, record))
            cursor = prev_state
        path.reverse()
        # Rebuild as (target_state, transition) pairs from the anchor.
        cycle: List[Tuple[int, CompactTransition]] = [(after_first, first_record)]
        cycle.extend(path)
        return anchor, cycle

    # ------------------------------------------------------------------ #
    # witnesses
    # ------------------------------------------------------------------ #
    @staticmethod
    def _record_step(record: CompactTransition) -> WitnessStep:
        profile = tuple(
            NodeActivation(node=v, idle=i, cw=c, ccw=w) for (v, i, c, w) in record[0]
        )
        return WitnessStep(profile=profile, counts_after=record[1])

    def _path_to(
        self, parents: Dict[int, Optional[Tuple[int, int]]], state: int
    ) -> Tuple[int, List[CompactTransition]]:
        """Root initial state and the transition records leading to ``state``."""
        chain: List[CompactTransition] = []
        cursor = state
        while True:
            parent = parents[cursor]
            if parent is None:
                return cursor, list(reversed(chain))
            cursor, index = parent
            chain.append(self._edge_record(cursor, index))

    def _path_witness(
        self,
        parents: Dict[int, Optional[Tuple[int, int]]],
        state: int,
        extra: Optional[CompactTransition],
        note: str,
    ) -> Witness:
        root, records = self._path_to(parents, state)
        if extra is not None:
            records.append(extra)
        return Witness(
            initial_counts=self._counts_of[self._counts_code(root)],
            steps=tuple(self._record_step(record) for record in records),
            cycle_start=None,
            note=note,
        )

    def _livelock_witness(
        self,
        parents: Dict[int, Optional[Tuple[int, int]]],
        anchor: int,
        cycle_edges: List[Tuple[int, CompactTransition]],
        note: str,
    ) -> Witness:
        root, prefix = self._path_to(parents, anchor)
        steps = [self._record_step(record) for record in prefix]
        cycle_start = len(steps)
        for _, record in cycle_edges:
            steps.append(self._record_step(record))
        return Witness(
            initial_counts=self._counts_of[self._counts_code(root)],
            steps=tuple(steps),
            cycle_start=cycle_start,
            note=note,
        )
