"""Tests for the A-class and (A,B,C) structural classifications."""

import pytest

from repro.algorithms.classification import (
    AClass,
    classify_a,
    three_empty_structure,
)
from repro.core.configuration import Configuration
from repro.core.errors import AlgorithmPreconditionError, InvalidConfigurationError


def cfg_from_blocks(n, blocks):
    """Build a configuration from (start, length) occupied runs."""
    occupied = []
    for start, length in blocks:
        occupied.extend((start + i) % n for i in range(length))
    return Configuration.from_occupied(n, occupied)


class TestAClasses:
    def test_a_a(self):
        # Block of k-2=4 at 0..3, one empty, pair at 5,6 and a big gap. n=12, k=6.
        cfg = cfg_from_blocks(12, [(0, 4), (5, 2)])
        result = classify_a(cfg)
        assert result is not None
        assert result.label == AClass.A_A
        assert result.mover == 6
        assert result.target == 7

    def test_a_a_mirror(self):
        # Pair at {0,1}, one empty node, block at {3..6}: the far pair robot
        # (node 0) moves away from the block, into the big gap.
        cfg = cfg_from_blocks(12, [(0, 2), (3, 4)])
        result = classify_a(cfg)
        assert result.label == AClass.A_A
        assert result.mover == 0
        assert result.target == 11

    def test_a_b(self):
        # Block 0..3, r' at 5, isolated robot at 7. n=12, k=6.
        cfg = cfg_from_blocks(12, [(0, 4), (5, 1), (7, 1)])
        result = classify_a(cfg)
        assert result.label == AClass.A_B
        assert result.mover == 7
        assert result.target == 8

    def test_a_c(self):
        # Isolated robot reaches distance 2 on the other side: block 0..3,
        # r'=5, r=9 (gap 10, 11 to the block). n=12, k=6.
        cfg = cfg_from_blocks(12, [(0, 4), (5, 1), (9, 1)])
        result = classify_a(cfg)
        assert result.label == AClass.A_C
        assert result.mover == 3
        assert result.target == 4

    def test_a_d(self):
        # S = 0..2 (k-3), pair at 4,5, single robot at 9. n=12, k=6.
        cfg = cfg_from_blocks(12, [(0, 3), (4, 2), (9, 1)])
        result = classify_a(cfg)
        assert result.label == AClass.A_D
        assert result.mover == 9
        assert result.target == 10

    def test_a_e(self):
        cfg = cfg_from_blocks(12, [(0, 3), (4, 2), (10, 1)])
        result = classify_a(cfg)
        assert result.label == AClass.A_E
        assert result.mover == 10
        assert result.target == 11

    def test_a_f(self):
        # C* itself: block of k-1 and a single robot at distance 2.
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 4, 6])
        assert cfg.is_c_star()
        result = classify_a(cfg)
        assert result.label == AClass.A_F
        assert result.mover == 4
        assert result.target == 5

    def test_a_f_general_asymmetric(self):
        # Block of k-1 = 5 and a single robot with gaps 2 and 5.
        cfg = Configuration.from_occupied(13, [0, 1, 2, 3, 4, 7])
        result = classify_a(cfg)
        assert result.label == AClass.A_F
        assert result.mover == 4
        assert result.target == 5

    def test_a_f_symmetric_rejected(self):
        # Equal gaps on both sides of the single robot: not in A-f.
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 4, 8])
        assert classify_a(cfg) is None

    def test_not_classified_generic_configuration(self):
        cfg = Configuration.from_occupied(12, [0, 2, 5, 6, 9, 10])
        assert classify_a(cfg) is None

    def test_small_k_not_classified(self):
        cfg = Configuration.from_occupied(12, [0, 1, 2, 4])
        assert classify_a(cfg) is None

    def test_non_exclusive_not_classified(self):
        cfg = Configuration.from_positions(12, [0, 0, 1, 2, 3, 5, 6])
        assert classify_a(cfg) is None

    def test_ambiguous_5_10_a_d_not_classified(self):
        # For (k, n) = (5, 10) the A-d configuration is symmetric and the
        # mover cannot be identified: the classifier must refuse.
        cfg = cfg_from_blocks(10, [(0, 2), (3, 2), (7, 1)])
        assert cfg.is_symmetric
        assert classify_a(cfg) is None

    def test_cycle_classes_for_larger_ring(self):
        # Walk the documented cycle A-a -> A-b -> ... -> A-e -> A-a manually.
        n, k = 14, 6
        cfg = cfg_from_blocks(n, [(0, 4), (5, 2)])
        labels = []
        for _ in range(3 * n):
            result = classify_a(cfg)
            assert result is not None
            labels.append(result.label)
            cfg = cfg.move_robot(result.mover, result.target)
        assert set(labels) == {
            AClass.A_A,
            AClass.A_B,
            AClass.A_C,
            AClass.A_D,
            AClass.A_E,
        }


class TestThreeEmptyStructure:
    def test_structure_and_sizes(self):
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 5, 6, 7, 9, 10])
        structure = three_empty_structure(cfg)
        assert structure.empties == (4, 8, 11)
        assert sorted(structure.sizes) == [2, 3, 4]
        assert structure.sorted_sizes == (2, 3, 4)

    def test_zero_block(self):
        cfg = Configuration.from_occupied(10, [0, 1, 2, 3, 4, 5, 7])
        structure = three_empty_structure(cfg)
        assert 0 in structure.sizes
        assert sum(structure.sizes) == 7

    def test_requires_three_empties(self):
        cfg = Configuration.from_occupied(10, [0, 1, 2])
        for _ in range(2):  # failures are not memoised: every call raises
            with pytest.raises(InvalidConfigurationError, match="exactly 3 empty nodes"):
                three_empty_structure(cfg)

    def test_requires_exclusive(self):
        cfg = Configuration.from_positions(10, [0, 0, 1, 2, 3, 4, 5, 7])
        for _ in range(2):
            with pytest.raises(InvalidConfigurationError, match="exclusive"):
                three_empty_structure(cfg)

    def test_memoised_per_configuration(self):
        occupied = [0, 1, 2, 3, 5, 6, 7, 9, 10]
        cfg = Configuration.from_occupied(12, occupied)
        structure = three_empty_structure(cfg)
        assert three_empty_structure(cfg) is structure
        fresh = three_empty_structure(Configuration.from_occupied(12, occupied))
        assert fresh == structure and fresh is not structure

    def test_slot_with_size_unique(self):
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 5, 6, 7, 9, 10])
        structure = three_empty_structure(cfg)
        idx = structure.slot_with_size(4)
        assert structure.sizes[idx] == 4

    def test_slot_with_size_ambiguous(self):
        cfg = Configuration.from_occupied(11, [0, 1, 2, 4, 5, 6, 8, 9])
        structure = three_empty_structure(cfg)
        with pytest.raises(AlgorithmPreconditionError):
            structure.slot_with_size(3)

    def test_shared_empty_and_border_robot(self):
        cfg = Configuration.from_occupied(12, [0, 1, 2, 3, 5, 6, 7, 9, 10])
        structure = three_empty_structure(cfg)
        big = structure.slot_with_size(4)
        mid = structure.slot_with_size(3)
        shared = structure.shared_empty(big, mid)
        assert shared in structure.empties
        border = structure.border_robot(big, mid)
        assert cfg.ring.are_adjacent(border, shared)

    def test_border_robot_requires_nonempty_slot(self):
        cfg = Configuration.from_occupied(10, [0, 1, 2, 3, 4, 5, 7])
        structure = three_empty_structure(cfg)
        empty_slot = structure.slot_with_size(0)
        other = (empty_slot + 1) % 3
        with pytest.raises(AlgorithmPreconditionError):
            structure.border_robot(empty_slot, other)
