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
    """Bound the engine's memos and the class-plan registry at one entry.

    The bounds are module constants of :mod:`repro.batchsim.engine` (the
    decision cache, Look table and pool) and of
    :mod:`repro.simulator.classplan` (tables kept, classes per table),
    not options, so this is the only way to put every memo under
    eviction pressure; engines built while the fixture is active must
    still step exactly like the reference stepper.
    """
    import repro.batchsim.engine as engine_module
    import repro.simulator.classplan as classplan_module

    monkeypatch.setattr(engine_module, "DEFAULT_DECISION_CACHE_SIZE", 1)
    monkeypatch.setattr(engine_module, "_MAX_POOL_SIZE", 1)
    monkeypatch.setattr(classplan_module, "_PLAN_TABLE_LIMIT", 1)
    monkeypatch.setattr(classplan_module, "_PLAN_CLASS_LIMIT", 1)


@pytest.fixture
def fresh_plan_tables(monkeypatch):
    """An empty process-wide class-plan registry for this test only.

    For tests that count planner calls, rig a planner or rig the
    registry's bounds: a table another test warmed, or turned off, would
    hide what they check.  Returns a callable
    that empties the registry again, so a test can count from an empty
    registry per engine.
    """
    import repro.simulator.classplan as classplan_module

    tables = {}
    monkeypatch.setattr(classplan_module, "_PLAN_TABLES", tables)
    return tables.clear
