"""Cyclic-sequence mathematics.

Configurations on an anonymous ring are naturally described by *cyclic*
sequences (of occupancy bits, or of inter-robot gap lengths).  Two
configurations are indistinguishable to the robots exactly when their
cyclic sequences are related by a rotation (the ring has no starting
point) or a reflection (the ring has no orientation).  This module
gathers the pure sequence-level machinery:

* rotations, reflections and their orbits,
* lexicographically minimal rotation (canonical form), via Booth's
  algorithm in :math:`O(n)`,
* the smallest period of a cyclic sequence,
* rotational-symmetry and reflective-symmetry tests,
* the dihedral canonical form (minimum over rotations *and* reflections).

Everything here is independent of rings and robots and is reused by
:mod:`repro.core.views`, :mod:`repro.core.configuration` and the
configuration enumeration in :mod:`repro.analysis.enumeration`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple, TypeVar

__all__ = [
    "rotate",
    "reflect",
    "rotations",
    "reflections",
    "all_dihedral_images",
    "min_rotation_index",
    "canonical_rotation",
    "canonical_dihedral",
    "smallest_period",
    "is_rotationally_symmetric",
    "reflection_matches",
    "is_reflectively_symmetric",
    "iter_fixed_sum_necklaces",
    "iter_fixed_sum_bracelets",
    "PackedSequenceCodec",
    "packed_codec",
]

T = TypeVar("T")


def rotate(seq: Sequence[T], offset: int) -> Tuple[T, ...]:
    """Return ``seq`` rotated so that element ``offset`` comes first.

    ``rotate((a, b, c), 1) == (b, c, a)``.  The offset is taken modulo the
    length; rotating the empty sequence returns the empty tuple.
    """
    items = tuple(seq)
    if not items:
        return items
    offset %= len(items)
    return items[offset:] + items[:offset]


def reflect(seq: Sequence[T]) -> Tuple[T, ...]:
    """Return the reflection of a cyclic sequence.

    The reflection keeps the first element in place and reverses the
    travelling direction: ``(q0, q1, ..., qm)`` becomes
    ``(q0, qm, ..., q1)``.  This matches the paper's definition of
    :math:`\\overline{W}` for views and corresponds to reading the ring in
    the opposite direction starting from the same node.
    """
    items = tuple(seq)
    if len(items) <= 1:
        return items
    return (items[0],) + tuple(reversed(items[1:]))


def rotations(seq: Sequence[T]) -> List[Tuple[T, ...]]:
    """All rotations of ``seq`` (length ``len(seq)``, or ``[()]`` if empty)."""
    items = tuple(seq)
    if not items:
        return [items]
    return [rotate(items, i) for i in range(len(items))]


def reflections(seq: Sequence[T]) -> List[Tuple[T, ...]]:
    """All rotations of the reflection of ``seq``."""
    return rotations(reflect(seq))


def all_dihedral_images(seq: Sequence[T]) -> List[Tuple[T, ...]]:
    """Every image of ``seq`` under the dihedral group (rotations + reflections)."""
    return rotations(seq) + reflections(seq)


def min_rotation_index(seq: Sequence[T]) -> int:
    """Index of the lexicographically minimal rotation (Booth's algorithm).

    Runs in :math:`O(n)` time and :math:`O(n)` space.  For the empty
    sequence the index is ``0``.
    """
    items = tuple(seq)
    n = len(items)
    if n == 0:
        return 0
    doubled = items + items
    failure = [-1] * (2 * n)
    best = 0
    for j in range(1, 2 * n):
        i = failure[j - best - 1]
        while i != -1 and doubled[j] != doubled[best + i + 1]:
            if doubled[j] < doubled[best + i + 1]:
                best = j - i - 1
            i = failure[i]
        if doubled[j] != doubled[best + i + 1]:
            if doubled[j] < doubled[best + i + 1]:
                best = j
            failure[j - best] = -1
        else:
            failure[j - best] = i + 1
    return best % n


def canonical_rotation(seq: Sequence[T]) -> Tuple[T, ...]:
    """The lexicographically minimal rotation of ``seq``."""
    return rotate(seq, min_rotation_index(seq))


#: Size of the per-process canonical-form caches.  Census and feasibility
#: experiments recompute canonical forms for millions of configurations
#: drawn from a much smaller set of gap cycles, so a bounded LRU cache
#: turns the dihedral minimisation into a dictionary lookup on the hot path.
CANONICAL_CACHE_SIZE = 1 << 16


def _canonical_dihedral_uncached(items: Tuple[T, ...]) -> Tuple[T, ...]:
    forward = canonical_rotation(items)
    backward = canonical_rotation(tuple(reversed(items)))
    return min(forward, backward)


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _canonical_dihedral_cached(items: Tuple[T, ...]) -> Tuple[T, ...]:
    return _canonical_dihedral_uncached(items)


def canonical_dihedral(seq: Sequence[T]) -> Tuple[T, ...]:
    """The lexicographically minimal image under rotations and reflections.

    This is the canonical form used to identify configurations that are
    indistinguishable on an anonymous, unoriented ring.  Results are
    memoised per process (see :data:`CANONICAL_CACHE_SIZE`); sequences
    with unhashable elements fall back to the direct computation.
    """
    items = tuple(seq)
    try:
        return _canonical_dihedral_cached(items)
    except TypeError:  # unhashable elements: compute without the cache
        return _canonical_dihedral_uncached(items)


def smallest_period(seq: Sequence[T]) -> int:
    """Length of the smallest period of the *cyclic* sequence ``seq``.

    The period ``p`` divides ``len(seq)`` and satisfies
    ``seq[i] == seq[(i + p) % len(seq)]`` for all ``i``.  A sequence whose
    smallest period equals its length is aperiodic.  The empty sequence
    has period ``0``.
    """
    items = tuple(seq)
    try:
        return _smallest_period_cached(items)
    except TypeError:  # unhashable elements: compute without the cache
        return _smallest_period_uncached(items)


def _smallest_period_uncached(items: Tuple[T, ...]) -> int:
    n = len(items)
    if n == 0:
        return 0
    for p in range(1, n + 1):
        if n % p != 0:
            continue
        if all(items[i] == items[(i + p) % n] for i in range(n)):
            return p
    return n  # pragma: no cover - unreachable, p == n always matches


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _smallest_period_cached(items: Tuple[T, ...]) -> int:
    return _smallest_period_uncached(items)


def is_rotationally_symmetric(seq: Sequence[T]) -> bool:
    """Whether a *non-trivial* rotation maps the cyclic sequence to itself.

    Matches the paper's definition of a *periodic* configuration
    (invariant under non-complete rotations).
    """
    items = tuple(seq)
    return len(items) > 0 and smallest_period(items) < len(items)


def reflection_matches(seq: Sequence[T]) -> List[int]:
    """Rotation offsets ``i`` such that ``rotate(seq, i) == reversed(seq)``.

    Each match corresponds to an axis of reflection of the cyclic
    sequence; the list is empty iff the sequence is reflectively
    asymmetric.
    """
    items = tuple(seq)
    try:
        return list(_reflection_matches_cached(items))
    except TypeError:  # unhashable elements: compute without the cache
        return list(_reflection_matches_uncached(items))


def _reflection_matches_uncached(items: Tuple[T, ...]) -> Tuple[int, ...]:
    n = len(items)
    if n == 0:
        return ()
    rev = tuple(reversed(items))
    return tuple(i for i in range(n) if rotate(items, i) == rev)


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _reflection_matches_cached(items: Tuple[T, ...]) -> Tuple[int, ...]:
    return _reflection_matches_uncached(items)


def is_reflectively_symmetric(seq: Sequence[T]) -> bool:
    """Whether some reflection maps the cyclic sequence to itself."""
    return bool(reflection_matches(seq))


class PackedSequenceCodec:
    """Fixed-width packing of bounded integer sequences into single ints.

    A length-``n`` sequence of integers in ``0 .. max_value`` is packed
    big-endian (element ``0`` in the most significant digit) into one
    Python int, so *numeric* comparison of packed values coincides with
    *lexicographic* comparison of the sequences.  Rotations then become
    two shifts and a mask — no tuple slicing, no allocation — and the
    dihedral canonical form is a min-scan over ``2 n`` packed images.

    This is the integer backbone of the packed-state frontier engine
    (:mod:`repro.modelcheck.frontier`): occupancy vectors live as packed
    ints in visited sets and parent maps, and
    :meth:`canonical_with_transform` reports *which* group element
    achieved the minimum so callers can map per-node data between the
    concrete and canonical frames through the permutation tables of
    :func:`repro.core.symmetry.dihedral_permutation_tables`.

    The canonical form agrees exactly with :func:`canonical_dihedral`:
    ``unpack(canonical(pack(seq))) == canonical_dihedral(seq)``.
    """

    __slots__ = (
        "n",
        "max_value",
        "digit_bits",
        "total_bits",
        "digit_mask",
        "full_mask",
        "_rotation_shifts",
        "_low_masks",
    )

    def __init__(self, n: int, max_value: int) -> None:
        if n < 1:
            raise ValueError(f"packed sequences need length >= 1, got {n}")
        if max_value < 0:
            raise ValueError(f"max_value cannot be negative, got {max_value}")
        self.n = n
        self.max_value = max_value
        self.digit_bits = max(1, max_value.bit_length())
        self.total_bits = n * self.digit_bits
        self.digit_mask = (1 << self.digit_bits) - 1
        self.full_mask = (1 << self.total_bits) - 1
        # rotate(seq, r) keeps the low (n - r) digits and wraps the top r
        # digits around; both operand masks are precomputed per offset.
        self._rotation_shifts = tuple(r * self.digit_bits for r in range(n))
        self._low_masks = tuple(
            (1 << ((n - r) * self.digit_bits)) - 1 for r in range(n)
        )

    # ------------------------------------------------------------------ #
    # packing
    # ------------------------------------------------------------------ #
    def pack(self, seq: Sequence[int]) -> int:
        """Pack ``seq`` (length ``n``, values ``0 .. max_value``) into an int."""
        packed = 0
        bits = self.digit_bits
        for value in seq:
            packed = (packed << bits) | value
        return packed

    def unpack(self, packed: int) -> Tuple[int, ...]:
        """The sequence encoded by ``packed`` (inverse of :meth:`pack`)."""
        bits = self.digit_bits
        mask = self.digit_mask
        out = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            out[i] = packed & mask
            packed >>= bits
        return tuple(out)

    # ------------------------------------------------------------------ #
    # batch packing
    # ------------------------------------------------------------------ #
    def pack_many(self, rows: Iterable[Sequence[int]]) -> List[int]:
        """Pack a batch of sequences (one :meth:`pack` per row, no checks)."""
        bits = self.digit_bits
        out: List[int] = []
        for row in rows:
            packed = 0
            for value in row:
                packed = (packed << bits) | value
            out.append(packed)
        return out

    # ------------------------------------------------------------------ #
    # dihedral action on packed values
    # ------------------------------------------------------------------ #
    def rotate(self, packed: int, r: int) -> int:
        """Packed image of ``rotate(seq, r)`` — two shifts and a mask."""
        r %= self.n
        if r == 0:
            return packed
        shift = self._rotation_shifts[r]
        return ((packed & self._low_masks[r]) << shift) | (
            packed >> (self.total_bits - shift)
        )

    def reversed_digits(self, packed: int) -> int:
        """Packed image of ``tuple(reversed(seq))`` (one O(n) digit scan)."""
        bits = self.digit_bits
        mask = self.digit_mask
        out = 0
        for _ in range(self.n):
            out = (out << bits) | (packed & mask)
            packed >>= bits
        return out

    def canonical(self, packed: int) -> int:
        """The minimal packed image under rotations and reflections."""
        best = packed
        for r in range(1, self.n):
            image = self.rotate(packed, r)
            if image < best:
                best = image
        reflected = self.reversed_digits(packed)
        for r in range(self.n):
            image = self.rotate(reflected, r)
            if image < best:
                best = image
        return best

    def canonical_with_transform(self, packed: int) -> Tuple[int, int, int]:
        """Canonical form plus the group element achieving it.

        Returns ``(canonical, flip, r)`` with ``canonical ==
        rotate(reversed_digits(packed) if flip else packed, r)``.  In
        sequence terms ``canon[j] == seq[sigma(j)]`` where ``sigma(j) =
        (j + r) % n`` for ``flip == 0`` and ``sigma(j) = (n - 1 - r - j)
        % n`` for ``flip == 1`` — i.e. ``sigma`` is the rotation table
        ``r`` or the reflection table ``(n - 1 - r) % n`` of
        :func:`repro.core.symmetry.dihedral_permutation_tables`.  Ties
        resolve to the first match in scan order (forward rotations by
        increasing offset, then reflected ones).
        """
        best, best_flip, best_r = packed, 0, 0
        for r in range(1, self.n):
            image = self.rotate(packed, r)
            if image < best:
                best, best_flip, best_r = image, 0, r
        reflected = self.reversed_digits(packed)
        for r in range(self.n):
            image = self.rotate(reflected, r)
            if image < best:
                best, best_flip, best_r = image, 1, r
        return best, best_flip, best_r


@lru_cache(maxsize=None)
def packed_codec(n: int, max_value: int) -> PackedSequenceCodec:
    """Process-wide shared :class:`PackedSequenceCodec` per ``(n, max_value)``."""
    return PackedSequenceCodec(n, max_value)


def iter_fixed_sum_necklaces(length: int, total: int) -> Iterator[Tuple[int, ...]]:
    """All necklaces of ``length`` non-negative integers summing to ``total``.

    A *necklace* is the lexicographically smallest rotation of a cyclic
    sequence; exactly one is yielded per rotation class, in increasing
    lexicographic order.  This is the FKM recursion (Fredricksen-Kessler-
    Maiorana, as generalised by Cattell et al.) over the alphabet
    ``0..total``: position ``t`` either repeats ``a[t - p]`` (extending
    the current period ``p``) or exceeds it (resetting the period to
    ``t``), and a full sequence is a necklace iff ``length % p == 0``.
    The running-sum bound prunes every branch that cannot reach ``total``
    exactly, so the traversal stays proportional to its output — no
    candidate is ever generated and then discarded by a seen-set.
    """
    if length <= 0:
        if length == 0 and total == 0:
            yield ()
        return
    a = [0] * (length + 1)

    def gen(t: int, p: int, remaining: int) -> Iterator[Tuple[int, ...]]:
        if t > length:
            if remaining == 0 and length % p == 0:
                yield tuple(a[1:])
            return
        v = a[t - p]
        if v > remaining:
            return
        a[t] = v
        yield from gen(t + 1, p, remaining - v)
        for v in range(a[t - p] + 1, remaining + 1):
            a[t] = v
            yield from gen(t + 1, t, remaining - v)

    yield from gen(1, 1, total)


def iter_fixed_sum_bracelets(length: int, total: int) -> Iterator[Tuple[int, ...]]:
    """One representative per *dihedral* class (rotations and reflections).

    Filters :func:`iter_fixed_sum_necklaces` down to the necklaces that
    are also minimal against their mirror image: a dihedral class merges
    at most two rotation classes (a necklace and the necklace of its
    reversal), and the yielded representative is exactly
    :func:`canonical_dihedral` of every member of the class.  Yields in
    increasing lexicographic order.
    """
    for necklace in iter_fixed_sum_necklaces(length, total):
        if necklace <= canonical_rotation(tuple(reversed(necklace))):
            yield necklace
