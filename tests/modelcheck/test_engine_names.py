"""The engine-name shim: one packed engine, and the removed vector names.

Benchmark tooling still resolves an engine name and patches a few names
of the removed NumPy vector engine; these tests pin that those names
exist, route nothing and resolve to the packed engine.
"""

import pytest

from repro.modelcheck import engines, vector


def test_default_and_packed_names_resolve_to_packed():
    for name in (None, "auto", "packed"):
        assert engines.resolve_engine(name) == "packed"


def test_unknown_and_removed_names_rejected():
    for name in ("vector", "legacy", "quantum"):
        with pytest.raises(ValueError):
            engines.resolve_engine(name)


def test_vector_names_route_nothing():
    assert isinstance(vector.VectorFrontierExplorer.__dict__["supports_cell"], staticmethod)
    assert vector.VectorFrontierExplorer.supports_cell(None, 6, 3) is False
    for removed in (vector.canonical_many, vector.advance_clear_many):
        with pytest.raises(NotImplementedError):
            removed()
