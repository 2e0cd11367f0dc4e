"""Unit tests for :mod:`repro.model.decisions`."""

import pytest

from repro.model.decisions import Decision, DecisionKind


class TestDecision:
    def test_idle(self):
        d = Decision.idle()
        assert d.is_idle
        assert not d.is_move
        assert d.kind is DecisionKind.IDLE
        assert d.toward_view is None

    @pytest.mark.parametrize("index", [0, 1])
    def test_move(self, index):
        d = Decision.move_toward(index)
        assert d.is_move
        assert not d.is_idle
        assert d.toward_view == index

    def test_move_requires_valid_index(self):
        with pytest.raises(ValueError):
            Decision.move_toward(2)
        with pytest.raises(ValueError):
            Decision(DecisionKind.MOVE, None)

    def test_idle_cannot_carry_index(self):
        with pytest.raises(ValueError):
            Decision(DecisionKind.IDLE, 0)

    def test_decisions_are_value_objects(self):
        assert Decision.idle() == Decision.idle()
        assert Decision.move_toward(1) == Decision.move_toward(1)
        assert Decision.move_toward(0) != Decision.move_toward(1)

