"""Tests for EngineOptions and the runner helpers' ``options=`` keyword."""

import pytest

from repro import EngineOptions
from repro.algorithms.align import AlignAlgorithm
from repro.algorithms.gathering import GatheringAlgorithm
from repro.simulator.engine import Simulator
from repro.simulator.runner import run_gathering, simulate
from repro.workloads.generators import random_rigid_configuration

import random


def _start(n=12, k=5, seed=0):
    return random_rigid_configuration(n, k, random.Random(seed))


class TestEngineOptions:
    def test_defaults_and_jsonable_roundtrip(self):
        options = EngineOptions()
        assert EngineOptions.from_jsonable(options.to_jsonable()) == options

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineOptions(collision_policy="ignore")
        with pytest.raises(ValueError):
            EngineOptions(decision_cache_size=0)
        with pytest.raises(ValueError):
            EngineOptions(config_pool_size=0)
        with pytest.raises(ValueError):
            EngineOptions.from_jsonable({"chirality": True, "verbosity": 9})

    def test_with_overrides_revalidates(self):
        options = EngineOptions()
        assert options.with_overrides(chirality=True).chirality
        with pytest.raises(ValueError):
            options.with_overrides(collision_policy="ignore")

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineOptions().chirality = True


class TestEngineIntegration:
    def test_engine_accepts_options_bundle(self):
        options = EngineOptions(presentation_seed=7, decision_cache=False)
        engine = Simulator(AlignAlgorithm(), _start(), options=options)
        assert engine.options == options
        assert engine.decision_cache is None

    def test_explicit_keyword_overrides_bundle(self):
        engine = Simulator(
            AlignAlgorithm(),
            _start(),
            options=EngineOptions(decision_cache=False),
            decision_cache=True,
        )
        assert engine.options.decision_cache is True
        assert engine.decision_cache is not None

    def test_options_and_keywords_trace_identically(self):
        baseline = Simulator(AlignAlgorithm(), _start(), presentation_seed=3)
        bundled = Simulator(
            AlignAlgorithm(), _start(), options=EngineOptions(presentation_seed=3)
        )
        baseline.run(60)
        bundled.run(60)
        assert baseline.trace.canonical_bytes() == bundled.trace.canonical_bytes()


class TestRunnerKeywords:
    def test_options_path_does_not_warn(self, recwarn):
        simulate(AlignAlgorithm(), _start(), steps=5, options=EngineOptions())
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_unknown_keyword_still_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            simulate(AlignAlgorithm(), _start(), steps=5, warp_speed=9)

    def test_run_gathering_forces_model(self):
        cfg = _start(11, 4, seed=1)
        _, engine = run_gathering(GatheringAlgorithm(), cfg, max_steps=2000)
        assert engine.options.exclusive is False
        assert engine.options.multiplicity_detection is True

    def test_run_gathering_forces_model_over_options(self):
        cfg = _start(11, 4, seed=1)
        options = EngineOptions(
            exclusive=True, multiplicity_detection=False, presentation_seed=3
        )
        _, engine = run_gathering(GatheringAlgorithm(), cfg, max_steps=2000, options=options)
        assert engine.options.exclusive is False
        assert engine.options.multiplicity_detection is True
        assert engine.options.presentation_seed == 3

    def test_run_gathering_never_accepted_model_keywords(self):
        # These were TypeErrors before the options refactor and must stay so:
        # accepting exclusive=True here would break the gathering model.
        cfg = _start(11, 4, seed=1)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_gathering(GatheringAlgorithm(), cfg, exclusive=True)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_gathering(GatheringAlgorithm(), cfg, multiplicity_detection=False)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_gathering(GatheringAlgorithm(), cfg, collision_policy="record")
