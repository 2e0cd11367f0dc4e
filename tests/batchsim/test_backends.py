"""Unit tests for the batchsim occupancy-row storage."""

import pytest

from repro.batchsim.backends import StdlibBackend, resolve_backend
from repro.core.cyclic import packed_codec

ROWS = [(1, 0, 2, 0), (0, 1, 1, 1), (3, 0, 0, 0)]


@pytest.fixture
def backend():
    return StdlibBackend(ROWS)


class TestRowProtocol:
    def test_num_lanes(self, backend):
        assert backend.num_lanes == 3

    def test_counts_roundtrip(self, backend):
        for i, row in enumerate(ROWS):
            assert backend.counts(i) == row
            assert all(type(c) is int for c in backend.counts(i))

    def test_row_mutation_visible_in_counts(self, backend):
        row = backend.row(0)
        row[0] -= 1
        row[1] += 1
        assert backend.counts(0) == (0, 1, 2, 0)

    def test_tobytes_distinguishes_rows(self, backend):
        keys = {backend.row(i).tobytes() for i in range(3)}
        assert len(keys) == 3

    def test_tobytes_tracks_mutation(self, backend):
        before = backend.row(0).tobytes()
        backend.row(0)[0] += 1
        assert backend.row(0).tobytes() != before

    def test_pack_all_matches_codec(self, backend):
        codec = packed_codec(4, 3)
        assert backend.pack_all(codec) == codec.pack_many(ROWS)

    def test_pack_all_beyond_int64(self):
        # n=24, k=8 digit layout needs 96 bits per packed state.
        n, k = 24, 8
        row = tuple([k] + [0] * (n - 1))
        codec = packed_codec(n, k)
        packed = StdlibBackend([row]).pack_all(codec)
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
