"""Configurations of robots on an anonymous ring.

A *configuration* (paper, Section 2) is the set of nodes occupied by at
least one robot; it deliberately ignores how many robots share a node.
For the gathering task robots may pile up, so this class stores the full
multiplicity vector while exposing the support-level quantities (views,
symmetry, supermin) that the paper's configurations are defined on.

Instances are immutable and hashable; every mutating operation returns a
new configuration.  Node identifiers are the global indices of
:class:`repro.core.ring.Ring` and are *not* visible to robots — robots
only ever receive relative views through
:class:`repro.model.snapshot.Snapshot`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import views as _views
from .cyclic import (
    canonical_dihedral,
    is_reflectively_symmetric,
    is_rotationally_symmetric,
)
from .errors import (
    ExclusivityViolationError,
    InvalidConfigurationError,
    NotOccupiedError,
)
from .ring import CCW, CW, Ring
from .symmetry import Axis, symmetry_axes

__all__ = ["Configuration", "Interval", "Block"]


class Interval(tuple):
    """A maximal run of consecutive empty nodes (possibly empty).

    An interval is represented by the tuple of the empty nodes it
    contains, in clockwise order, plus the two occupied nodes bounding it
    (available via :attr:`before` and :attr:`after`).
    """

    before: int
    after: int

    def __new__(cls, nodes: Iterable[int], before: int, after: int) -> "Interval":
        obj = super().__new__(cls, tuple(nodes))
        obj.before = before
        obj.after = after
        return obj

    @property
    def length(self) -> int:
        """Number of empty nodes in the interval."""
        return len(self)


class Block(tuple):
    """A maximal run of consecutive occupied nodes, in clockwise order."""

    @property
    def length(self) -> int:
        """Number of occupied nodes in the block."""
        return len(self)

    @property
    def first(self) -> int:
        """First node of the block in clockwise order."""
        return self[0]

    @property
    def last(self) -> int:
        """Last node of the block in clockwise order."""
        return self[-1]


class Configuration:
    """Immutable robot occupancy of an ``n``-node ring.

    Args:
        counts: multiplicity of robots on each node; length defines ``n``.

    Raises:
        InvalidConfigurationError: if the vector is shorter than 3 nodes,
            contains negative entries, or holds no robot at all.
    """

    __slots__ = ("_counts", "_n", "_k", "_support", "_gap_cache", "_hash", "_memo")

    def __init__(self, counts: Sequence[int]) -> None:
        counts_t = tuple(int(c) for c in counts)
        if len(counts_t) < 3:
            raise InvalidConfigurationError(
                f"a configuration needs a ring of size >= 3, got {len(counts_t)}"
            )
        if any(c < 0 for c in counts_t):
            raise InvalidConfigurationError("robot multiplicities cannot be negative")
        if sum(counts_t) == 0:
            raise InvalidConfigurationError("a configuration must contain at least one robot")
        self._counts: Tuple[int, ...] = counts_t
        self._n: int = len(counts_t)
        self._k: int = sum(counts_t)
        self._support: Tuple[int, ...] = tuple(i for i, c in enumerate(counts_t) if c > 0)
        self._gap_cache: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        self._hash: Optional[int] = None
        self._memo: Dict[str, object] = {}

    def _memoised(self, key: str, compute):
        """Cache a derived quantity on the (immutable) configuration.

        Sits alongside ``_gap_cache``/``_hash``: derived quantities only
        depend on ``_counts``, so they are computed at most once per
        instance.  Only immutable values may be stored.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_occupied(cls, n: int, occupied: Iterable[int]) -> "Configuration":
        """Exclusive configuration with one robot on each node of ``occupied``."""
        counts = [0] * n
        for node in occupied:
            if not 0 <= node < n:
                raise InvalidConfigurationError(f"node {node} outside ring of size {n}")
            if counts[node]:
                raise ExclusivityViolationError(
                    f"node {node} listed twice in an exclusive configuration"
                )
            counts[node] = 1
        return cls(counts)

    @classmethod
    def from_positions(cls, n: int, positions: Iterable[int]) -> "Configuration":
        """Configuration induced by robot positions (multiplicities allowed)."""
        counts = [0] * n
        for node in positions:
            if not 0 <= node < n:
                raise InvalidConfigurationError(f"node {node} outside ring of size {n}")
            counts[node] += 1
        return cls(counts)

    @classmethod
    def from_trusted_counts(cls, counts: Tuple[int, ...]) -> "Configuration":
        """Fast constructor for callers that already validated ``counts``.

        Skips the per-element validation of ``__init__``; ``counts`` must
        be a tuple of non-negative integers, at least 3 long, with a
        positive sum.  Used by the simulation engine (which maintains a
        validated occupancy array incrementally) and by the necklace
        enumerator (whose gap cycles are correct by construction).
        """
        obj = object.__new__(cls)
        obj._counts = counts
        obj._n = len(counts)
        obj._k = sum(counts)
        obj._support = tuple(i for i, c in enumerate(counts) if c > 0)
        obj._gap_cache = None
        obj._hash = None
        obj._memo = {}
        return obj

    @classmethod
    def from_gaps(cls, gaps: Sequence[int], anchor: int = 0) -> "Configuration":
        """Exclusive configuration built from a gap cycle.

        ``gaps[i]`` empty nodes follow the ``i``-th occupied node
        clockwise; the first occupied node is placed at ``anchor``.
        """
        gaps_t = tuple(int(g) for g in gaps)
        if any(g < 0 for g in gaps_t):
            raise InvalidConfigurationError("gaps cannot be negative")
        if not gaps_t:
            raise InvalidConfigurationError("a gap cycle needs at least one entry")
        n = _views.ring_size_of(gaps_t)
        occupied = []
        node = anchor % n
        for g in gaps_t:
            occupied.append(node)
            node = (node + 1 + g) % n
        return cls.from_occupied(n, occupied)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Ring size."""
        return self._n

    @property
    def k(self) -> int:
        """Total number of robots (counting multiplicities)."""
        return self._k

    @property
    def counts(self) -> Tuple[int, ...]:
        """Multiplicity vector indexed by node."""
        return self._counts

    @property
    def support(self) -> Tuple[int, ...]:
        """Occupied nodes in increasing node order."""
        return self._support

    @property
    def num_occupied(self) -> int:
        """Number of occupied nodes (the paper's configuration size)."""
        return len(self._support)

    @property
    def ring(self) -> Ring:
        """The underlying ring."""
        return Ring(self._n)

    @property
    def is_exclusive(self) -> bool:
        """Whether every node holds at most one robot.

        O(1): every node holds at most one robot iff the number of
        occupied nodes equals the number of robots.
        """
        return len(self._support) == self._k

    def multiplicity(self, node: int) -> int:
        """Number of robots on ``node``."""
        return self._counts[node]

    def is_occupied(self, node: int) -> bool:
        """Whether ``node`` holds at least one robot."""
        return self._counts[node] > 0

    def has_multiplicity(self, node: int) -> bool:
        """Whether ``node`` holds strictly more than one robot."""
        return self._counts[node] > 1

    # ------------------------------------------------------------------ #
    # structure: gap cycle, blocks, intervals
    # ------------------------------------------------------------------ #
    def occupied_order(self, start: int, direction: int) -> Tuple[int, ...]:
        """Occupied nodes met when walking from occupied ``start`` in ``direction``."""
        if not self.is_occupied(start):
            raise NotOccupiedError(start)
        ordered = [
            node for node in Ring(self._n).iter_from(start, direction) if self.is_occupied(node)
        ]
        return tuple(ordered)

    def gap_cycle(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The gap cycle and its anchoring nodes.

        Returns ``(gaps, nodes)`` where ``nodes`` lists the occupied nodes
        in clockwise order starting from the smallest occupied node index,
        and ``gaps[i]`` is the number of empty nodes between ``nodes[i]``
        and ``nodes[(i + 1) % j]`` clockwise.
        """
        if self._gap_cache is None:
            # Walking clockwise from the smallest occupied node visits the
            # occupied nodes in increasing index order — i.e. `_support`.
            nodes = self._support
            j = len(nodes)
            gaps = tuple(
                (nodes[(i + 1) % j] - nodes[i]) % self._n - 1 if j > 1 else self._n - 1
                for i in range(j)
            )
            self._gap_cache = (gaps, nodes)
        return self._gap_cache

    def gaps(self) -> Tuple[int, ...]:
        """The gap cycle (clockwise, anchored at the smallest occupied node)."""
        return self.gap_cycle()[0]

    def blocks(self) -> List[Block]:
        """Maximal runs of consecutive occupied nodes, in clockwise order.

        The list starts with the block containing the occupied node that
        follows the "wrap-around" empty run; if every node is occupied the
        single block starts at node 0.
        """
        return list(self._memoised("blocks", self._compute_blocks))

    def _compute_blocks(self) -> Tuple[Block, ...]:
        if len(self._support) == self._n:
            return (Block(range(self._n)),)
        gaps, nodes = self.gap_cycle()
        j = len(nodes)
        blocks: List[Block] = []
        current: List[int] = []
        # Start scanning right after a strictly positive gap so blocks are maximal.
        start_idx = next(i for i in range(j) if gaps[i] > 0)
        order = [(start_idx + 1 + t) % j for t in range(j)]
        for idx in order:
            current.append(nodes[idx])
            if gaps[idx] > 0:
                blocks.append(Block(current))
                current = []
        if current:  # pragma: no cover - defensive; loop always closes blocks
            blocks.append(Block(current))
        return tuple(blocks)

    def intervals(self) -> List[Interval]:
        """Maximal runs of empty nodes with their bounding occupied nodes.

        Intervals of length zero (two adjacent occupied nodes) are
        included, matching the paper's definition.
        """
        return list(self._memoised("intervals", self._compute_intervals))

    def _compute_intervals(self) -> Tuple[Interval, ...]:
        gaps, nodes = self.gap_cycle()
        j = len(nodes)
        out: List[Interval] = []
        for i in range(j):
            before = nodes[i]
            after = nodes[(i + 1) % j]
            empties = [(before + 1 + t) % self._n for t in range(gaps[i])]
            out.append(Interval(empties, before=before, after=after))
        return tuple(out)

    def empty_nodes(self) -> Tuple[int, ...]:
        """All unoccupied nodes in increasing order."""
        return tuple(i for i, c in enumerate(self._counts) if c == 0)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def directed_view(self, node: int, direction: int) -> Tuple[int, ...]:
        """The view read from occupied ``node`` travelling in ``direction``."""
        if not self.is_occupied(node):
            raise NotOccupiedError(node)
        gaps, nodes = self.gap_cycle()
        idx = nodes.index(node)
        if direction == CW:
            return _views.cw_view(gaps, idx)
        if direction == CCW:
            return _views.ccw_view(gaps, idx)
        raise ValueError(f"direction must be CW (+1) or CCW (-1), got {direction}")

    def views_of(self, node: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Both directed views of ``node`` as ``(clockwise, counter-clockwise)``.

        Memoised per node: the engine asks for the same node's views on
        every Look of a revisited configuration, so repeats are a
        dictionary hit.
        """
        key = ("views", node)
        memo = self._memo
        cached = memo.get(key)
        if cached is None:
            if not self.is_occupied(node):
                raise NotOccupiedError(node)
            gaps, nodes = self.gap_cycle()
            idx = nodes.index(node)
            cached = (_views.cw_view(gaps, idx), _views.ccw_view(gaps, idx))
            memo[key] = cached
        return cached

    def min_view(self, node: int) -> Tuple[int, ...]:
        """The node's view :math:`W(r)`: the smaller of its two directed views."""
        cw, ccw = self.views_of(node)
        return min(cw, ccw)

    def supermin_view(self) -> Tuple[int, ...]:
        """The supermin configuration view :math:`W^C_{min}`."""
        return self._memoised("supermin_view", lambda: _views.supermin_view(self.gaps()))

    def supermin_anchors(self) -> List[Tuple[int, int]]:
        """All ``(node, direction)`` pairs whose directed view is the supermin."""
        return list(self._memoised("supermin_anchors", self._compute_supermin_anchors))

    def _compute_supermin_anchors(self) -> Tuple[Tuple[int, int], ...]:
        gaps, nodes = self.gap_cycle()
        return tuple(
            (nodes[idx], direction) for idx, direction in _views.supermin_anchors(gaps)
        )

    def supermin_interval_count(self) -> int:
        """:math:`|I_C|`, the number of supermin intervals (Lemma 1)."""
        return self._memoised(
            "supermin_interval_count",
            lambda: len(_views.supermin_interval_indices(self.gaps())),
        )

    # ------------------------------------------------------------------ #
    # symmetry / rigidity
    # ------------------------------------------------------------------ #
    @property
    def is_periodic(self) -> bool:
        """Invariant under a non-trivial rotation (Property 1.(i))."""
        return self._memoised(
            "is_periodic", lambda: is_rotationally_symmetric(self.gaps())
        )

    @property
    def is_symmetric(self) -> bool:
        """Admits an axis of reflection (Property 1.(ii))."""
        return self._memoised(
            "is_symmetric", lambda: is_reflectively_symmetric(self.gaps())
        )

    @property
    def is_rigid(self) -> bool:
        """Aperiodic and asymmetric."""
        return not self.is_periodic and not self.is_symmetric

    def symmetry_axes(self) -> List[Axis]:
        """Geometric axes of reflection of the occupied set."""
        return list(
            self._memoised(
                "symmetry_axes", lambda: tuple(symmetry_axes(self._support, self._n))
            )
        )

    # ------------------------------------------------------------------ #
    # canonical forms
    # ------------------------------------------------------------------ #
    def canonical_gaps(self) -> Tuple[int, ...]:
        """Canonical gap cycle under rotations and reflections.

        Two exclusive configurations are indistinguishable on an anonymous
        unoriented ring iff their canonical gap cycles coincide.
        """
        return self._memoised(
            "canonical_gaps", lambda: canonical_dihedral(self.gaps())
        )

    def canonical_key(self) -> Tuple[int, Tuple[int, ...]]:
        """Hashable key identifying the configuration up to ring automorphism.

        For non-exclusive configurations the key also accounts for the
        multiplicity pattern (but not the exact multiplicities beyond
        "more than one", mirroring what robots could ever distinguish
        with local multiplicity detection is *not* attempted here — the
        key is exact on multiplicities so it stays a sound equality).
        """
        return self._memoised("canonical_key", self._compute_canonical_key)

    def _compute_canonical_key(self) -> Tuple[int, Tuple[int, ...]]:
        images = []
        counts = self._counts
        n = self._n
        for flip in (False, True):
            base = tuple(reversed(counts)) if flip else counts
            for r in range(n):
                images.append(base[r:] + base[:r])
        return (self._n, min(images))

    # ------------------------------------------------------------------ #
    # special forms from the paper
    # ------------------------------------------------------------------ #
    def is_c_star(self) -> bool:
        """Whether this is the target configuration :math:`C^*` of Align.

        :math:`C^*` consists of ``k - 1`` consecutive occupied nodes, one
        empty node, one occupied node and at least two consecutive empty
        nodes; equivalently its supermin view is
        ``(0, ..., 0, 1, n - k - 1)`` with ``n - k - 1 >= 2``.
        """
        if not self.is_exclusive:
            return False
        k, n = self._k, self._n
        if k < 2 or n - k - 1 < 2:
            return False
        expected = (0,) * (k - 2) + (1, n - k - 1)
        return self.supermin_view() == expected

    def is_c_star_type(self) -> bool:
        """Whether the *support* forms a :math:`C^*`-type configuration.

        Used by the gathering algorithm: ``j`` occupied nodes
        (``3 <= j``), ``j - 2`` intervals of length zero, one interval of
        length one, and one interval of length ``n - j - 1 >= 2``.
        """
        j, n = self.num_occupied, self._n
        if j < 3 or n - j - 1 < 2:
            return False
        expected = (0,) * (j - 2) + (1, n - j - 1)
        return self.supermin_view() == expected

    def c_star_type_anchor(self) -> Tuple[int, int]:
        """The unique ``(node, direction)`` reading the C*-type supermin view.

        The returned node is the "first node" of the paper's ordered
        C*-type sequence (the end of the occupied block farthest from the
        isolated robot); the direction points along the block.
        """
        if not self.is_c_star_type():
            raise InvalidConfigurationError("configuration is not of C*-type")
        anchors = self.supermin_anchors()
        # Rigidity of C*-type configurations guarantees a unique anchor.
        return anchors[0]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def move_robot(self, source: int, target: int, *, require_adjacent: bool = True) -> "Configuration":
        """Return the configuration after moving one robot ``source -> target``.

        Args:
            source: node currently holding at least one robot.
            target: destination node.
            require_adjacent: enforce that the move slides along an edge
                (the only motion allowed in the model).
        """
        if not self.is_occupied(source):
            raise NotOccupiedError(source)
        if not 0 <= target < self._n:
            raise InvalidConfigurationError(f"node {target} outside ring of size {self._n}")
        if require_adjacent and not Ring(self._n).are_adjacent(source, target):
            raise InvalidConfigurationError(
                f"nodes {source} and {target} are not adjacent on a ring of size {self._n}"
            )
        counts = list(self._counts)
        counts[source] -= 1
        counts[target] += 1
        return Configuration(counts)

    def rotated(self, offset: int) -> "Configuration":
        """The configuration with every robot shifted by ``offset`` positions."""
        n = self._n
        counts = [0] * n
        for node, c in enumerate(self._counts):
            counts[(node + offset) % n] = c
        return Configuration(counts)

    def reflected(self, reflection_index: int = 0) -> "Configuration":
        """The mirror image under the reflection ``x -> (c - x) mod n``."""
        n = self._n
        counts = [0] * n
        for node, c in enumerate(self._counts):
            counts[(reflection_index - node) % n] = c
        return Configuration(counts)

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._counts)
        return self._hash

    def __repr__(self) -> str:
        if self.is_exclusive:
            return f"Configuration(n={self._n}, occupied={list(self._support)})"
        occ = {node: self._counts[node] for node in self._support}
        return f"Configuration(n={self._n}, robots={occ})"

    def ascii_art(self) -> str:
        """One-line ASCII rendering: ``R`` occupied, ``.`` empty, digits for multiplicities."""
        chars = []
        for c in self._counts:
            if c == 0:
                chars.append(".")
            elif c == 1:
                chars.append("R")
            elif c < 10:
                chars.append(str(c))
            else:
                chars.append("*")
        return "".join(chars)
