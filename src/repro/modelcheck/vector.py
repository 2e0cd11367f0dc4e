"""NumPy-vectorized frontier backend: array-batched exploration.

:class:`VectorFrontierExplorer` is a drop-in accelerator for the packed
frontier engine (:class:`repro.modelcheck.frontier.FrontierExplorer`):
same states, same verdicts, same witnesses, byte-identical verdict
documents — both certified against the same golden verdict corpus.  What changes is *how* each BFS wave is processed:

* the queue is drained in **snapshot batches** (a snapshot processed in
  order, discoveries appended in global transition order, reproduces the
  serial FIFO exactly);
* per occupancy vector, the compact successor records are compiled once
  into NumPy columns (packed successor codes, support masks, traversed
  masks, full flags) kept in the cell's persistent
  :class:`~repro.modelcheck.frontier.CellCache`;
* successor states are computed for a whole batch at once — the
  searching task's clear/recontaminate dynamics as a bitwise fixed point
  over int64 arrays (:func:`advance_clear_many`), dihedral
  canonicalisation as a min-reduction over the permutation tables
  applied to every state in the batch (:func:`canonical_many`);
* duplicate elimination runs against a sorted visited array
  (``np.unique`` first-occurrence + ``searchsorted`` membership), so
  parent assignment still picks the serially-first discovering edge;
* fair-livelock detection first runs a **bit-parallel emptiness proof**
  over all ``n`` "edge i never clear" regions at once: a region whose
  restricted graph has no full edge, or no cycle besides non-full
  self-loops, provably contains no fair trap (an SCC with an internal
  edge needs a cycle; SSYNC fairness needs a full internal edge), and
  the serial SCC pass runs only on regions the proof cannot clear —
  where it returns the byte-identical witness.

Hazard paths — algorithm errors, collision flags under an exclusive
spec, a possible state-cap crossing, reach-task goal absorption — drop
to the exact serial per-state bookkeeping, so early-exit verdicts,
notes and statistics match the packed engine to the byte.

The engine is chosen automatically whenever NumPy imports (see
:mod:`repro.modelcheck.engines`) and never appears in specs, run ids or
cache keys.  Cells whose packed state exceeds 62 bits (int64 headroom) are
declined by :meth:`VectorFrontierExplorer.supports_cell` and explored by
the packed engine instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.cyclic import packed_codec
from ..core.symmetry import dihedral_permutation_tables
from ..simulator.branching import (
    COMPACT_COLLISION,
    COMPACT_FULL,
    BranchingDriver,
)
from .engines import numpy_or_none
from .frontier import FrontierExplorer
from .results import Verdict, ModelCheckResult
from .tasks import TaskSpec

__all__ = ["VectorFrontierExplorer", "advance_clear_many", "canonical_many"]

Counts = Tuple[int, ...]

#: Chunks smaller than this are expanded serially: NumPy call overhead
#: exceeds the per-state cost on thin BFS levels.
_MIN_CHUNK = 4

#: Packed-state width the int64 array path accepts (sign-bit headroom).
_MAX_STATE_BITS = 62


def _require_numpy():
    np = numpy_or_none()
    if np is None:  # pragma: no cover - callers gate on resolve_engine
        raise RuntimeError("the vector engine requires NumPy")
    return np


def canonical_many(codes, n: int, max_value: int):
    """Dihedral-canonical packed codes of a whole batch at once.

    Equivalent to mapping :func:`repro.core.cyclic.PackedSequenceCodec.canonical`
    over ``codes``: each code is unpacked into digit columns, all ``2n``
    rotation/reflection images are gathered through the precomputed
    permutation tables of :func:`dihedral_permutation_tables` in one
    fancy-index, packed back via the codec's place values (an int64
    matmul), and the canonical form is the min-reduction over the image
    axis — the orbit minimum, identical to the serial min-scan.

    Args:
        codes: int64 array of packed codes (``packed_codec(n, max_value)``
            layout).
        n: sequence length (ring size).
        max_value: maximum digit value (number of robots).

    Returns:
        int64 array of canonical packed codes, same shape as ``codes``.
    """
    np = _require_numpy()
    codec = packed_codec(n, max_value)
    bits = codec.digit_bits
    if n * bits > _MAX_STATE_BITS:
        raise ValueError(
            f"packed width {n * bits} bits exceeds the int64 batch limit"
        )
    codes = np.asarray(codes, dtype=np.int64)
    shifts = np.array([bits * (n - 1 - i) for i in range(n)], dtype=np.int64)
    digit_mask = (1 << bits) - 1
    digits = (codes[:, None] >> shifts[None, :]) & digit_mask
    rotations, reflections = dihedral_permutation_tables(n)
    perms = np.array(
        [list(t) for t in rotations] + [list(t) for t in reflections],
        dtype=np.int64,
    )
    images = digits[:, perms]  # (batch, 2n, n)
    place = np.array(list(codec.place_values), dtype=np.int64)
    return (images @ place).min(axis=1)


def advance_clear_many(n: int, supports, pre):
    """Batched searching dynamics: clear-edge masks after one step.

    Bitwise fixed-point formulation of
    :meth:`repro.tasks.searching.RingSearchDynamics.advance`, applied to
    whole int64 arrays: edges between robot pairs are guarded, the
    pre-clear set is extended by them, and recontamination spreads from
    contaminated edges through robot-free nodes until the fixed point —
    exactly the interval-survival rule of the serial dynamics (verified
    exhaustively for small ``n`` by the property suite).

    Args:
        n: ring size.
        supports: int64 array of node-occupancy bitmasks.
        pre: int64 array of pre-step clear-edge bitmasks (same shape).

    Returns:
        int64 array of post-step clear-edge bitmasks.
    """
    np = _require_numpy()
    supports = np.asarray(supports, dtype=np.int64)
    pre = np.asarray(pre, dtype=np.int64)
    mask = (1 << n) - 1

    def rotr(x):
        return ((x >> 1) | ((x & 1) << (n - 1))) & mask

    def rotl(x):
        return ((x << 1) | (x >> (n - 1))) & mask

    guarded = supports & rotr(supports)
    updated = (pre | guarded) & mask
    free = ~supports & mask
    contaminated = ~updated & mask
    bad = free & (contaminated | rotl(contaminated))
    while True:
        spread = bad | (free & (rotl(bad) | rotr(bad)))
        if np.array_equal(spread, bad):
            break
        bad = spread
    clear = updated & ~(bad | rotr(bad)) & mask
    # The interval formulation defines advance(0, *) == 0 (no robots,
    # nothing stays clear); unreachable during exploration (k >= 1) but
    # mirrored exactly for the differential property tests.
    return np.where(supports == 0, 0, clear)


class _RecArrays:
    """Per-occupancy-vector successor records compiled to NumPy columns."""

    __slots__ = ("codes", "supports", "traversed", "fulls", "states", "any_collision", "m")

    def __init__(self, codes, supports, traversed, fulls, states, any_collision, m):
        self.codes = codes
        self.supports = supports
        self.traversed = traversed
        self.fulls = fulls
        #: Precomputed successor *states* for the state-independent kinds
        #: (canonical codes for ``reach``/``explore``); ``None`` for
        #: ``search``, whose phase depends on the predecessor state.
        self.states = states
        self.any_collision = any_collision
        self.m = m


class _Counters:
    """Mutable transition counter threaded through the batch loop."""

    __slots__ = ("transitions",)

    def __init__(self) -> None:
        self.transitions = 0


class VectorFrontierExplorer(FrontierExplorer):
    """Array-batched explorer, byte-identical to :class:`FrontierExplorer`.

    Accepts the same constructor arguments; see the module docstring for
    the batching strategy and the exactness argument of every fast path.
    """

    def __init__(
        self,
        spec: TaskSpec,
        n: int,
        k: int,
        adversary: str,
        max_states: int,
        driver: BranchingDriver,
        shards: int = 1,
        persistent: bool = False,
    ) -> None:
        super().__init__(
            spec, n, k, adversary, max_states, driver,
            shards=shards, persistent=persistent,
        )
        self._np = _require_numpy()
        self._ring_mask = (1 << n) - 1
        self._arrays: Dict[int, _RecArrays] = self._cell.arrays
        #: expanded state -> int64 array of its successor states, stashed
        #: by the vector chunks so livelock analysis concatenates arrays
        #: instead of re-walking out_edges.
        self._succ_stash: Dict[int, object] = {}
        self._goal_memo: Dict[int, bool] = {}

    @staticmethod
    def supports_cell(spec: TaskSpec, n: int, k: int) -> bool:
        """Whether the cell's packed states fit the int64 array path."""
        codec = packed_codec(n, k)
        state_bits = codec.total_bits + (n if spec.kind == "search" else 0)
        return state_bits <= _MAX_STATE_BITS

    # ------------------------------------------------------------------ #
    # per-code record columns
    # ------------------------------------------------------------------ #
    def _rec_arrays(self, code: int) -> _RecArrays:
        entry = self._arrays.get(code)
        if entry is None:
            np = self._np
            records = self._records(code)
            m = len(records)
            codes = np.empty(m, dtype=np.int64)
            supports = np.empty(m, dtype=np.int64)
            traversed = np.empty(m, dtype=np.int64)
            fulls = np.zeros(m, dtype=bool)
            any_collision = False
            for index, record in enumerate(records):
                succ_code, succ_support = self._pack_counts(record[1])
                codes[index] = succ_code
                supports[index] = succ_support
                traversed[index] = record[2]
                flags = record[4]
                if flags & COMPACT_FULL:
                    fulls[index] = True
                if flags & COMPACT_COLLISION:
                    any_collision = True
            states = None
            if self.spec.kind != "search":
                states = (
                    self._canonical_codes_array(codes)
                    if self.spec.canonical
                    else codes
                )
            entry = _RecArrays(codes, supports, traversed, fulls, states, any_collision, m)
            self._arrays[code] = entry
        return entry

    def _canonical_codes_array(self, codes):
        """Canonical packed codes of ``codes``, through the shared memo."""
        canon_memo = self._canon_memo
        missing = [c for c in set(codes.tolist()) if c not in canon_memo]
        if missing:
            np = self._np
            arr = np.fromiter(missing, dtype=np.int64, count=len(missing))
            for concrete, canon in zip(missing, canonical_many(arr, self.n, self.k).tolist()):
                canon_memo[concrete] = canon
                if canon not in self._counts_of:
                    self._counts_of[canon] = self.codec.unpack(canon)
        out = self._np.empty(len(codes), dtype=self._np.int64)
        for i, c in enumerate(codes.tolist()):
            out[i] = canon_memo[c]
        return out

    def _goal_of(self, code: int) -> bool:
        cached = self._goal_memo.get(code)
        if cached is None:
            cached = self._is_goal(self._counts_of[code])
            self._goal_memo[code] = cached
        return cached

    # ------------------------------------------------------------------ #
    # main loop (batch-synchronous BFS over queue snapshots)
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

        np = self._np
        spec = self.spec
        is_reach = spec.kind == "reach"
        parents: Dict[int, Optional[Tuple[int, int]]] = {}
        out_edges: Dict[int, List[Tuple[int, int]]] = {}
        goal_states: Set[int] = set()
        pending: List[int] = []
        for state in initials:
            if state not in parents:
                parents[state] = None
                pending.append(state)
        ctr = _Counters()

        visited_sorted = np.fromiter(parents.keys(), dtype=np.int64, count=len(parents))
        visited_sorted.sort()
        recent: Set[int] = set()

        while pending:
            batch = pending
            pending = []
            if self.shards > 1:
                self._prefetch(batch)
            if len(recent) > 64 and len(recent) * 4 > visited_sorted.size:
                visited_sorted = np.fromiter(
                    parents.keys(), dtype=np.int64, count=len(parents)
                )
                visited_sorted.sort()
                recent.clear()
            size = len(batch)
            i = 0
            while i < size:
                # Scan forward to the next state needing serial handling
                # (algorithm error or reach-goal absorption).
                j = i
                while j < size:
                    code = self._counts_code(batch[j])
                    if self._expansion(code)[0] != "ok":
                        break
                    if is_reach and self._goal_of(code):
                        break
                    j += 1
                chunk = batch[i:j]
                if chunk:
                    done = len(chunk) >= _MIN_CHUNK and self._vector_chunk(
                        chunk, parents, out_edges, pending, visited_sorted, recent, ctr
                    )
                    if not done:
                        for state in chunk:
                            if self._expand_serial(
                                state, parents, out_edges, goal_states,
                                pending, recent, result, ctr,
                            ):
                                return
                if j < size:
                    if self._expand_serial(
                        batch[j], parents, out_edges, goal_states,
                        pending, recent, result, ctr,
                    ):
                        return
                i = j + 1

        result.num_states = len(parents)
        result.num_transitions = ctr.transitions

        livelock = self._find_livelock(out_edges, goal_states)
        if livelock is not None:
            anchor, cycle_edges, note = livelock
            result.verdict = Verdict.LIVELOCK
            result.witness = self._livelock_witness(parents, anchor, cycle_edges, note)
            return
        result.verdict = Verdict.SOLVED

    def _expand_serial(
        self,
        state: int,
        parents: Dict[int, Optional[Tuple[int, int]]],
        out_edges: Dict[int, List[Tuple[int, int]]],
        goal_states: Set[int],
        pending: List[int],
        recent: Set[int],
        result: ModelCheckResult,
        ctr: _Counters,
    ) -> bool:
        """Serial per-state bookkeeping, exactly the packed engine's.

        Returns ``True`` when exploration must stop (the verdict and
        witness have been written to ``result``).
        """
        spec = self.spec
        code = self._counts_code(state)
        counts = self._counts_of[code]
        if spec.kind == "reach" and self._goal_of(code):
            # Absorbing goal: verify stability instead of expanding.
            if self._goal_is_stable(code):
                goal_states.add(state)
                out_edges[state] = []
                return False
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
            result.num_transitions = ctr.transitions
            return True
        records = entry[1]
        edges_here: List[Tuple[int, int]] = []
        for index, record in enumerate(records):
            ctr.transitions += 1
            if spec.exclusive and record[4] & COMPACT_COLLISION:
                result.verdict = Verdict.COLLISION
                result.witness = self._path_witness(
                    parents, state, extra=record,
                    note="exclusivity violated: two robots meet on one node",
                )
                result.num_states = len(parents)
                result.num_transitions = ctr.transitions
                return True
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
                    result.num_transitions = ctr.transitions
                    return True
                pending.append(successor)
                recent.add(successor)
        out_edges[state] = edges_here
        return False

    def _vector_chunk(
        self,
        chunk: Sequence[int],
        parents: Dict[int, Optional[Tuple[int, int]]],
        out_edges: Dict[int, List[Tuple[int, int]]],
        pending: List[int],
        visited_sorted,
        recent: Set[int],
        ctr: _Counters,
    ) -> bool:
        """Expand a hazard-free chunk as arrays.

        Returns ``False`` without side effects when a hazard (collision
        flag under an exclusive spec, possible state-cap crossing) means
        the chunk must take the exact serial path instead.
        """
        np = self._np
        spec = self.spec
        arrays = [self._rec_arrays(self._counts_code(s)) for s in chunk]
        if spec.exclusive and any(a.any_collision for a in arrays):
            return False
        total = sum(a.m for a in arrays)
        if len(parents) + total > self.max_states:
            # Conservative: duplicates may keep the serial path under the
            # cap, so let it do the exact per-insertion accounting.
            return False

        reps = np.fromiter((a.m for a in arrays), dtype=np.int64, count=len(arrays))
        if spec.kind == "search":
            bits = self.counts_bits
            src_states = np.fromiter(chunk, dtype=np.int64, count=len(chunk))
            clear_rep = np.repeat(src_states >> bits, reps)
            supports = np.concatenate([a.supports for a in arrays])
            traversed = np.concatenate([a.traversed for a in arrays])
            codes = np.concatenate([a.codes for a in arrays])
            new_clear = advance_clear_many(self.n, supports, clear_rep | traversed)
            succ = (new_clear << bits) | codes
        else:
            succ = np.concatenate([a.states for a in arrays])
        ctr.transitions += total

        # First-occurrence dedup against the visited set: np.unique
        # returns the smallest flat index per value, i.e. the serially
        # first discovering edge.
        vals, first_idx = np.unique(succ, return_index=True)
        if visited_sorted.size:
            pos = np.searchsorted(visited_sorted, vals)
            inb = pos < visited_sorted.size
            known = np.zeros(len(vals), dtype=bool)
            known[inb] = visited_sorted[pos[inb]] == vals[inb]
        else:
            known = np.zeros(len(vals), dtype=bool)
        cand_vals = vals[~known]
        cand_idx = first_idx[~known]
        order = np.argsort(cand_idx)
        cand_vals = cand_vals[order]
        cand_idx = cand_idx[order]

        offsets = np.zeros(len(chunk) + 1, dtype=np.int64)
        np.cumsum(reps, out=offsets[1:])
        src_pos = np.searchsorted(offsets, cand_idx, side="right") - 1
        rec_idx = cand_idx - offsets[src_pos]
        for value, sp, ri in zip(cand_vals.tolist(), src_pos.tolist(), rec_idx.tolist()):
            if value in recent:
                continue
            parents[value] = (chunk[sp], ri)
            recent.add(value)
            pending.append(value)

        succ_list = succ.tolist()
        offset = 0
        for state, a in zip(chunk, arrays):
            segment = succ_list[offset:offset + a.m]
            out_edges[state] = list(zip(segment, range(a.m)))
            self._succ_stash[state] = succ[offset:offset + a.m]
            offset += a.m
        return True

    # ------------------------------------------------------------------ #
    # livelock detection with a vectorized emptiness proof
    # ------------------------------------------------------------------ #
    def _find_livelock(
        self,
        out_edges: Dict[int, List[Tuple[int, int]]],
        goal_states: Set[int],
    ):
        """Fair-trap search with a bit-parallel region emptiness proof.

        SSYNC only (sequential fairness is a coverage test the proof
        does not model): a region can hold a fair trap only if it has an
        in-region **full** edge *and* either a cycle through >= 2 nodes
        (detected by a greatest-fixed-point "has arbitrarily long
        in-region path" iteration, bit-parallel across all regions) or a
        full self-loop.  Regions failing the test are provably trap-free
        and skipped; the serial SCC pass — and with it the byte-identical
        witness choice — runs only on the surviving candidates, in the
        serial region order.
        """
        if self.adversary != "ssync" or self.spec.kind == "explore" or not out_edges:
            return super()._find_livelock(out_edges, goal_states)
        np = self._np
        n = self.n
        states = list(out_edges.keys())
        num = len(states)
        state_arr = np.fromiter(states, dtype=np.int64, count=num)
        sorter = np.argsort(state_arr, kind="stable")
        sorted_states = state_arr[sorter]

        if self.spec.kind == "search":
            node_reg = (~(state_arr >> self.counts_bits)) & self._ring_mask
        else:  # reach: one region, the non-goal states
            node_reg = np.ones(num, dtype=np.int64)
            if goal_states:
                for i, s in enumerate(states):
                    if s in goal_states:
                        node_reg[i] = 0

        lens = np.fromiter(
            (len(out_edges[s]) for s in states), dtype=np.int64, count=num
        )
        dst_parts, full_parts = [], []
        for s in states:
            if not out_edges[s]:
                continue
            stash = self._succ_stash.get(s)
            if stash is None:
                stash = np.fromiter(
                    (t for t, _ in out_edges[s]), dtype=np.int64, count=len(out_edges[s])
                )
            dst_parts.append(stash)
            full_parts.append(self._rec_arrays(self._counts_code(s)).fulls)
        if not dst_parts:
            return None
        src = np.repeat(np.arange(num, dtype=np.int64), lens)
        dst = sorter[np.searchsorted(sorted_states, np.concatenate(dst_parts))]
        fulls = np.concatenate(full_parts)

        edge_reg = node_reg[src] & node_reg[dst]
        full_reg = int(np.bitwise_or.reduce(edge_reg[fulls])) if fulls.any() else 0
        if not full_reg:
            return None
        self_mask = src == dst
        full_self = fulls & self_mask
        full_self_reg = (
            int(np.bitwise_or.reduce(edge_reg[full_self])) if full_self.any() else 0
        )

        cycle_reg = 0
        non_self = ~self_mask
        if non_self.any():
            es, ed, er = src[non_self], dst[non_self], edge_reg[non_self]
            order = np.argsort(es, kind="stable")
            es, ed, er = es[order], ed[order], er[order]
            seg_nodes, seg_starts = np.unique(es, return_index=True)
            # Greatest fixed point of "this node starts an arbitrarily
            # long in-region path"; nonzero bits == regions with cycles.
            f = node_reg.copy()
            while True:
                contributions = er & f[ed]
                g = np.zeros(num, dtype=np.int64)
                g[seg_nodes] = np.bitwise_or.reduceat(contributions, seg_starts)
                nf = f & g
                if np.array_equal(nf, f):
                    break
                f = nf
            cycle_reg = int(np.bitwise_or.reduce(f))

        candidates = full_reg & (cycle_reg | full_self_reg)
        if not candidates:
            return None
        if self.spec.kind == "search":
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
        region = {s for s in out_edges if s not in goal_states}
        return self._fair_trap(
            out_edges, region, note="fair loop never reaches the goal configuration"
        )
