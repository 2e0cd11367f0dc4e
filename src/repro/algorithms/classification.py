"""Configuration classification used by the phase-2 algorithms.

Two classifications live here:

* the six classes :math:`\\mathcal{A}`-a … :math:`\\mathcal{A}`-f of
  Algorithm Ring Clearing (paper, Section 4.3, Fig. 12), together with
  the robot that must move and its destination in each class;
* the ``(A, B, C)`` block-size description used by Algorithm NminusThree
  for ``k = n - 3`` (paper, Section 4.4).

Both classifications are purely structural (block sizes and the gaps
between blocks), which makes them straightforwardly equivariant under
ring automorphisms — the property needed for the per-robot adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.configuration import Block, Configuration
from ..core.errors import AlgorithmPreconditionError, InvalidConfigurationError
from ..core.ring import Ring

__all__ = [
    "AClass",
    "AClassification",
    "classify_a",
    "BlockStructure",
    "three_empty_structure",
]


# --------------------------------------------------------------------- #
# The A-classes of Ring Clearing
# --------------------------------------------------------------------- #
class AClass:
    """Labels of the Ring Clearing configuration classes."""

    A_A = "A-a"
    A_B = "A-b"
    A_C = "A-c"
    A_D = "A-d"
    A_E = "A-e"
    A_F = "A-f"

    ALL = (A_A, A_B, A_C, A_D, A_E, A_F)


@dataclass(frozen=True)
class AClassification:
    """Result of classifying a configuration into an :math:`\\mathcal{A}` class.

    Attributes:
        label: one of the :class:`AClass` labels.
        mover: node of the robot Ring Clearing moves in this class.
        target: node the robot moves to.
    """

    label: str
    mover: int
    target: int


def _gap_cw(configuration: Configuration, from_node: int, to_node: int) -> int:
    """Number of empty nodes strictly between two nodes clockwise."""
    distance = (to_node - from_node) % configuration.n
    return distance - 1


def classify_a(configuration: Configuration) -> Optional[AClassification]:
    """Classify a configuration into :math:`\\mathcal{A}` (or return ``None``).

    The classification follows the structural definitions of Fig. 12; the
    mover and its destination implement the arrows of the same figure
    (equivalently, lines 4-15 of the pseudo-code in Fig. 11):

    * A-a: the far robot of the adjacent pair moves away from the pair;
    * A-b: the isolated robot keeps moving away from the pair robot,
      towards the far side of the big block;
    * A-c: the border robot of the big block closest to the pair robot
      moves towards it;
    * A-d and A-e: the isolated robot moves towards the big block;
    * A-f: the border robot of the ``k - 1`` block closest to the single
      robot moves towards it.

    Only exclusive configurations are classified; ``None`` is returned
    for anything that does not match a class (the caller then falls back
    to Algorithm Align).
    """
    if not configuration.is_exclusive:
        return None
    k = configuration.k
    n = configuration.n
    if k < 5:
        return None
    blocks = configuration.blocks()
    sizes = sorted(block.length for block in blocks)
    ring = Ring(n)

    if len(blocks) == 2 and sizes == sorted((1, k - 1)) and k - 1 != 1:
        return _classify_a_f(configuration, blocks, ring)
    if len(blocks) == 2 and sizes == sorted((2, k - 2)) and k - 2 != 2:
        return _classify_a_a(configuration, blocks, ring)
    if len(blocks) == 3 and sizes == sorted((1, 1, k - 2)) and k - 2 != 1:
        return _classify_a_b_or_c(configuration, blocks, ring)
    if len(blocks) == 3 and sizes == sorted((1, 2, k - 3)) and k - 3 >= 2:
        return _classify_a_d_or_e(configuration, blocks, ring)
    return None


def _classify_a_f(
    configuration: Configuration, blocks: List[Block], ring: Ring
) -> Optional[AClassification]:
    big = max(blocks, key=lambda b: b.length)
    single = min(blocks, key=lambda b: b.length)
    s = single.first
    # Gaps between the single robot and each border of the big block.
    gap_after_big = _gap_cw(configuration, big.last, s)
    gap_before_big = _gap_cw(configuration, s, big.first)
    if gap_after_big == gap_before_big:
        return None  # symmetric: not in A-f (and unreachable from rigid starts)
    if gap_after_big + gap_before_big <= 3:
        return None  # the pseudo-code requires q_{k-2} + q_{k-1} > 3
    if gap_after_big < gap_before_big:
        mover = big.last
        target = ring.successor(mover, +1)
    else:
        mover = big.first
        target = ring.successor(mover, -1)
    return AClassification(label=AClass.A_F, mover=mover, target=target)


def _classify_a_a(
    configuration: Configuration, blocks: List[Block], ring: Ring
) -> Optional[AClassification]:
    pair = min(blocks, key=lambda b: b.length)
    big = max(blocks, key=lambda b: b.length)
    if pair.length != 2:
        return None
    gap_big_to_pair = _gap_cw(configuration, big.last, pair.first)
    gap_pair_to_big = _gap_cw(configuration, pair.last, big.first)
    if gap_big_to_pair == 1 and gap_pair_to_big > 2:
        # big ... [1 empty] pair -> the far pair robot is pair.last, it
        # moves clockwise (away from the big block).
        mover = pair.last
        target = ring.successor(mover, +1)
        return AClassification(label=AClass.A_A, mover=mover, target=target)
    if gap_pair_to_big == 1 and gap_big_to_pair > 2:
        mover = pair.first
        target = ring.successor(mover, -1)
        return AClassification(label=AClass.A_A, mover=mover, target=target)
    return None


def _classify_a_b_or_c(
    configuration: Configuration, blocks: List[Block], ring: Ring
) -> Optional[AClassification]:
    big = max(blocks, key=lambda b: b.length)
    singles = [b for b in blocks if b is not big]
    if len(singles) != 2 or any(b.length != 1 for b in singles):
        return None
    candidates: List[AClassification] = []
    for r_prime_block in singles:
        r_block = singles[0] if r_prime_block is singles[1] else singles[1]
        r_prime = r_prime_block.first
        r = r_block.first
        # r' must be separated by exactly one empty node from the big block.
        gap_big_rprime_cw = _gap_cw(configuration, big.last, r_prime)
        gap_rprime_big_cw = _gap_cw(configuration, r_prime, big.first)
        if gap_big_rprime_cw == 1:
            # Order (clockwise): big, [1], r', ..., r, ..., big.
            gap_rprime_r = _gap_cw(configuration, r_prime, r)
            gap_r_big = _gap_cw(configuration, r, big.first)
            if gap_rprime_r < 1:
                continue
            if gap_r_big == 2:
                # A-c: the big-block border closest to r' moves towards r'.
                mover = big.last
                target = ring.successor(mover, +1)
                candidates.append(AClassification(AClass.A_C, mover, target))
            elif gap_r_big >= 3:
                # A-b: r keeps moving away from r' (clockwise, towards big.first).
                mover = r
                target = ring.successor(mover, +1)
                candidates.append(AClassification(AClass.A_B, mover, target))
        elif gap_rprime_big_cw == 1:
            # Mirror order: big, ..., r, ..., r', [1], big.
            gap_r_rprime = _gap_cw(configuration, r, r_prime)
            gap_big_r = _gap_cw(configuration, big.last, r)
            if gap_r_rprime < 1:
                continue
            if gap_big_r == 2:
                mover = big.first
                target = ring.successor(mover, -1)
                candidates.append(AClassification(AClass.A_C, mover, target))
            elif gap_big_r >= 3:
                mover = r
                target = ring.successor(mover, -1)
                candidates.append(AClassification(AClass.A_B, mover, target))
    if len(candidates) == 1:
        return candidates[0]
    return None


def _classify_a_d_or_e(
    configuration: Configuration, blocks: List[Block], ring: Ring
) -> Optional[AClassification]:
    candidates: List[AClassification] = []
    for s_block in blocks:
        others = [b for b in blocks if b is not s_block]
        pair_candidates = [b for b in others if b.length == 2]
        single_candidates = [b for b in others if b.length == 1]
        if not pair_candidates or not single_candidates:
            continue
        for pair in pair_candidates:
            for single in single_candidates:
                if pair is single or s_block.length < 2:
                    continue
                r = single.first
                # Clockwise order S, [1], pair and single at gap 1 or 2 from S
                # on the other side: single, [gap], S.
                gap_s_pair = _gap_cw(configuration, s_block.last, pair.first)
                gap_single_s = _gap_cw(configuration, r, s_block.first)
                if gap_s_pair == 1 and gap_single_s in (1, 2):
                    label = AClass.A_D if gap_single_s == 2 else AClass.A_E
                    mover = r
                    target = ring.successor(mover, +1)
                    candidates.append(AClassification(label, mover, target))
                # Mirror orientation: pair, [1], S, ..., S, [gap], single.
                gap_pair_s = _gap_cw(configuration, pair.last, s_block.first)
                gap_s_single = _gap_cw(configuration, s_block.last, r)
                if gap_pair_s == 1 and gap_s_single in (1, 2):
                    label = AClass.A_D if gap_s_single == 2 else AClass.A_E
                    mover = r
                    target = ring.successor(mover, -1)
                    candidates.append(AClassification(label, mover, target))
    unique = {(c.label, c.mover, c.target) for c in candidates}
    if len(unique) == 1:
        label, mover, target = next(iter(unique))
        return AClassification(label, mover, target)
    return None


# --------------------------------------------------------------------- #
# (A, B, C) block structure for k = n - 3
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BlockStructure:
    """Structure of a configuration with exactly three empty nodes.

    Attributes:
        empties: the three empty nodes in clockwise order.
        slots: for each empty node, the tuple of occupied nodes lying
            clockwise between it and the next empty node (possibly empty).
        sizes: the sizes of the three slots (same order as ``slots``).
    """

    empties: Tuple[int, int, int]
    slots: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    sizes: Tuple[int, int, int]

    @property
    def sorted_sizes(self) -> Tuple[int, int, int]:
        """The paper's ``(A, B, C)`` description (sizes in increasing order)."""
        ordered = tuple(sorted(self.sizes))
        return ordered  # type: ignore[return-value]

    def slot_with_size(self, size: int) -> int:
        """Index of the unique slot of the given size.

        Raises:
            AlgorithmPreconditionError: when zero or several slots have
                that size (the configuration is then not rigid enough for
                the rule to be well defined).
        """
        matches = [i for i, s in enumerate(self.sizes) if s == size]
        if len(matches) != 1:
            raise AlgorithmPreconditionError(
                f"ambiguous block of size {size} in structure {self.sizes}"
            )
        return matches[0]

    def shared_empty(self, slot_a: int, slot_b: int) -> int:
        """The empty node lying directly between two distinct slots."""
        if slot_a == slot_b:
            raise ValueError("slots must be distinct")
        if (slot_a + 1) % 3 == slot_b:
            return self.empties[slot_b]
        if (slot_b + 1) % 3 == slot_a:
            return self.empties[slot_a]
        raise ValueError("slots are not adjacent")  # pragma: no cover - impossible with 3 slots

    def border_robot(self, slot: int, towards_slot: int) -> int:
        """The robot of ``slot`` closest to ``towards_slot``.

        Raises:
            AlgorithmPreconditionError: if the slot is empty.
        """
        nodes = self.slots[slot]
        if not nodes:
            raise AlgorithmPreconditionError(f"slot {slot} holds no robot")
        shared = self.shared_empty(slot, towards_slot)
        # The slot's nodes are listed clockwise from its left empty node;
        # the robot adjacent to the shared empty node is first or last.
        if (slot + 1) % 3 == towards_slot:
            return nodes[-1]
        return nodes[0]


def three_empty_structure(configuration: Configuration) -> BlockStructure:
    """Compute the :class:`BlockStructure` of a ``k = n - 3`` configuration.

    Memoised on the configuration (the structure is frozen), so pooled
    configurations revisited by a simulation pay one dictionary hit.

    Raises:
        InvalidConfigurationError: if the configuration does not have
            exactly three empty nodes or is not exclusive (on every call:
            failures are not memoised).
    """
    return configuration._memoised(
        "three_empty_structure", lambda: _three_empty_structure(configuration)
    )


def _three_empty_structure(configuration: Configuration) -> BlockStructure:
    if not configuration.is_exclusive:
        raise InvalidConfigurationError("the k = n - 3 structure requires an exclusive configuration")
    empties = configuration.empty_nodes()
    if len(empties) != 3:
        raise InvalidConfigurationError(
            f"expected exactly 3 empty nodes, found {len(empties)}"
        )
    n = configuration.n
    slots: List[Tuple[int, ...]] = []
    sizes: List[int] = []
    for index in range(3):
        start = empties[index]
        end = empties[(index + 1) % 3]
        nodes = []
        node = (start + 1) % n
        while node != end:
            nodes.append(node)
            node = (node + 1) % n
        slots.append(tuple(nodes))
        sizes.append(len(nodes))
    return BlockStructure(
        empties=(empties[0], empties[1], empties[2]),
        slots=(slots[0], slots[1], slots[2]),
        sizes=(sizes[0], sizes[1], sizes[2]),
    )
