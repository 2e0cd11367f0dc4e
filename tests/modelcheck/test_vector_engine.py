"""Unit tests for the NumPy-vectorized frontier primitives and fallback.

The byte-level engine equivalence gate lives in
``test_frontier_equivalence.py``; this file pins down the two array
primitives against their serial oracles (property-based, all ring sizes
the codec supports) and the no-NumPy degradation path.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cyclic import canonical_dihedral, packed_codec
from repro.modelcheck import ModelChecker, check_cell, engines
from repro.modelcheck.results import Verdict
from repro.modelcheck.vector import VectorFrontierExplorer, advance_clear_many, canonical_many
from repro.tasks.searching import ring_search_dynamics

np = pytest.importorskip("numpy")


def _canonical_json(result):
    return json.dumps(result.to_jsonable(include_timing=False), sort_keys=True)


@st.composite
def _packed_batches(draw):
    """A ``(n, max_value, sequences)`` batch for the canonicalization test."""
    n = draw(st.integers(min_value=3, max_value=14))
    max_value = draw(st.integers(min_value=1, max_value=7))
    sequences = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_value),
                min_size=n,
                max_size=n,
            ),
            min_size=1,
            max_size=24,
        )
    )
    return n, max_value, sequences


class TestCanonicalMany:
    @settings(max_examples=120, deadline=None)
    @given(_packed_batches())
    def test_matches_serial_canonical_dihedral(self, batch):
        n, max_value, sequences = batch
        codec = packed_codec(n, max_value)
        codes = np.asarray([codec.pack(seq) for seq in sequences], dtype=np.int64)
        batched = canonical_many(codes, n, max_value)
        for code, seq, got in zip(codes.tolist(), sequences, batched.tolist()):
            assert got == codec.canonical(code)
            assert got == codec.pack(canonical_dihedral(seq))

    def test_every_supported_ring_size_exhaustive_orbit(self):
        # One deterministic sweep per n: the canonical form must be a
        # member of the dihedral orbit and the orbit minimum.
        for n in range(3, 15):
            codec = packed_codec(n, 2)
            seq = [(3 * i + 1) % 3 for i in range(n)]
            code = codec.pack(seq)
            got = canonical_many(np.asarray([code], dtype=np.int64), n, 2)[0]
            assert got == codec.pack(canonical_dihedral(seq))


class TestAdvanceClearMany:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=3, max_value=14),
        st.data(),
    )
    def test_matches_serial_advance(self, n, data):
        mask = (1 << n) - 1
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=mask),
                    st.integers(min_value=0, max_value=mask),
                ),
                min_size=1,
                max_size=32,
            )
        )
        dynamics = ring_search_dynamics(n)
        supports = np.asarray([s for s, _ in pairs], dtype=np.int64)
        pres = np.asarray([p for _, p in pairs], dtype=np.int64)
        batched = advance_clear_many(n, supports, pres).tolist()
        for (support, pre), got in zip(pairs, batched):
            assert got == dynamics.advance(support, pre)

    def test_empty_support_clears_nothing(self):
        # The interval engine defines advance(0, anything) == 0; the
        # bit-parallel formula needs (and has) an explicit special case.
        for n in (3, 5, 8):
            mask = (1 << n) - 1
            got = advance_clear_many(
                n,
                np.asarray([0, 0], dtype=np.int64),
                np.asarray([mask, 0], dtype=np.int64),
            )
            assert got.tolist() == [0, 0]


class TestEngineResolution:
    def test_explicit_names_resolve_to_themselves(self):
        assert engines.resolve_engine("packed") == "packed"
        assert engines.resolve_engine("vector") == "vector"

    def test_auto_prefers_vector_with_numpy(self):
        assert engines.resolve_engine("auto") == "vector"
        assert engines.resolve_engine(None) == "vector"

    def test_unknown_and_removed_names_rejected(self):
        for name in ("quantum", "legacy"):
            with pytest.raises(ValueError):
                engines.resolve_engine(name)

    def test_environment_is_not_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODELCHECK_ENGINE", "packed")
        assert engines.resolve_engine("auto") == "vector"

    def test_oversized_cell_falls_back_to_packed(self):
        # searching 6x16 needs 16 counts digits * 3 bits + 16 clear bits
        # = 64 state bits > the 62-bit int64 budget.
        spec = __import__(
            "repro.modelcheck.tasks", fromlist=["make_task_spec"]
        ).make_task_spec("searching", 16, 6)
        assert not VectorFrontierExplorer.supports_cell(spec, 16, 6)
        checker = ModelChecker("searching", 16, 6, engine="vector", max_states=50)
        assert checker.run().verdict is Verdict.UNKNOWN


class TestNoNumpyFallback:
    @pytest.fixture
    def masked_numpy(self, monkeypatch):
        """Make the engine layer believe NumPy is not importable."""
        monkeypatch.setattr(engines, "_NUMPY", None)
        monkeypatch.setattr(engines, "_NUMPY_CHECKED", True)

    def test_vector_request_degrades_to_packed(self, masked_numpy):
        assert engines.resolve_engine("vector") == "packed"
        assert engines.resolve_engine("auto") == "packed"
        assert engines.resolve_engine(None) == "packed"

    def test_checker_selects_packed_engine(self, masked_numpy):
        checker = ModelChecker("searching", 6, 3, engine="vector")
        assert checker.engine == "packed"

    def test_verdicts_identical_without_numpy(self, masked_numpy):
        degraded = [
            check_cell(task, n, k, engine="vector")
            for task, k, n in [("searching", 6, 13), ("gathering", 2, 6), ("searching", 3, 6)]
        ]
        with_numpy = [
            check_cell(task, n, k, engine="packed")
            for task, k, n in [("searching", 6, 13), ("gathering", 2, 6), ("searching", 3, 6)]
        ]
        for left, right in zip(degraded, with_numpy):
            assert _canonical_json(left) == _canonical_json(right)
