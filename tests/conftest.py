"""Shared test fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _isolate_result_cache(monkeypatch):
    """Keep tests away from any real result cache of the developer.

    ``REPRO_RUN_CACHE`` makes every CLI invocation read/write a
    persistent content-addressed cache; inherited from the environment
    it would both pollute the developer's cache with test entries and
    serve stale results to tests.  Tests that exercise the variable set
    it explicitly via ``monkeypatch.setenv``.
    """
    monkeypatch.delenv("REPRO_RUN_CACHE", raising=False)


@pytest.fixture
def memo_bounds_of_one(monkeypatch):
    """Bound the engine's decision cache, Look table and pool at one entry.

    The bounds are module constants of :mod:`repro.batchsim.engine`, not
    options, so this is the only way to put every memo under eviction
    pressure; engines built while the fixture is active must still step
    exactly like the reference stepper.
    """
    import repro.batchsim.engine as engine_module

    monkeypatch.setattr(engine_module, "DEFAULT_DECISION_CACHE_SIZE", 1)
    monkeypatch.setattr(engine_module, "_MAX_POOL_SIZE", 1)
