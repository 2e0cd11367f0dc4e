"""Unit tests for the batchsim occupancy-row storage."""

import pytest

from repro.algorithms.baselines import IdleAlgorithm
from repro.batchsim import BatchEngine
from repro.batchsim.backends import resolve_backend
from repro.core.configuration import Configuration
from repro.core.cyclic import packed_codec
from repro.simulator.options import EngineOptions

ROWS = [(1, 0, 2, 0), (0, 1, 1, 1), (3, 0, 0, 0)]


def _engine(rows):
    configurations = [Configuration(row) for row in rows]
    return BatchEngine(
        IdleAlgorithm(),
        configurations,
        options=EngineOptions(exclusive=False, multiplicity_detection=True),
    )


class TestPackedStates:
    def test_packed_states_matches_codec(self):
        codec = packed_codec(4, 3)
        assert _engine(ROWS).packed_states() == codec.pack_many(ROWS)

    def test_packed_states_beyond_int64(self):
        # n=24, k=8 digit layout needs 96 bits per packed state.
        n, k = 24, 8
        row = tuple([k] + [0] * (n - 1))
        codec = packed_codec(n, k)
        packed = _engine([row]).packed_states()
        assert packed == codec.pack_many([row])
        assert packed[0] > 2**63


class TestResolution:
    def test_stdlib_is_the_only_backend(self):
        assert resolve_backend(None) == "stdlib"
        assert resolve_backend("auto") == "stdlib"
        assert resolve_backend("stdlib") == "stdlib"

    def test_unknown_names_rejected(self):
        for name in ("cuda", "numpy"):
            with pytest.raises(ValueError, match="unknown batchsim backend"):
                resolve_backend(name)
