"""Tests for EngineOptions and the runner helpers' ``options=`` keyword."""

from dataclasses import fields

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
            EngineOptions.from_jsonable({"chirality": True, "verbosity": 9})

    def test_exactly_the_model_fields(self):
        assert [f.name for f in fields(EngineOptions)] == [
            "exclusive",
            "multiplicity_detection",
            "presentation_seed",
            "collision_policy",
            "chirality",
        ]

    def test_null_presentation_seed_rejected(self):
        # A None seed would draw from OS entropy: one run id, many traces.
        with pytest.raises(ValueError, match="presentation_seed must be an integer"):
            EngineOptions(presentation_seed=None)

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
        options = EngineOptions(presentation_seed=7)
        engine = Simulator(AlignAlgorithm(), _start(), options=options)
        assert engine.options == options

    @pytest.mark.parametrize("name", [f.name for f in fields(EngineOptions)])
    def test_engine_knob_keywords_are_gone(self, name):
        # Every engine knob travels only inside ``options=``.
        value = getattr(EngineOptions(), name)
        with pytest.raises(TypeError, match="unexpected keyword"):
            Simulator(AlignAlgorithm(), _start(), **{name: value})


#: Per field: a ``simulate`` document and two values of the field that
#: give different payloads, or where one of the two runs raises.
FIELD_CASES = {
    "exclusive": (
        {"algorithm": "gathering", "n": 9, "k": 4, "steps": 50,
         "initial": [2, 0, 1, 0, 0, 1, 0, 0, 0],
         "engine": {"multiplicity_detection": True}},
        True, False,
    ),
    "multiplicity_detection": (
        {"algorithm": "gathering", "n": 9, "k": 4, "seed": 7, "steps": 400,
         "scheduler": "asynchronous", "engine": {"exclusive": False}},
        True, False,
    ),
    "presentation_seed": (
        {"algorithm": "sweep", "n": 12, "k": 5, "seed": 3, "steps": 100,
         "engine": {"collision_policy": "record"}},
        0, 1,
    ),
    "collision_policy": (
        {"algorithm": "sweep", "n": 12, "k": 5, "steps": 60, "scheduler": "synchronous"},
        "raise", "record",
    ),
    "chirality": (
        {"algorithm": "sweep", "n": 12, "k": 5, "seed": 3, "steps": 100,
         "engine": {"collision_policy": "record"}},
        False, True,
    ),
}


class TestEveryFieldShapesTheResult:
    """An option enters the run id, so each one must change what a run computes."""

    @pytest.mark.parametrize("name", [f.name for f in fields(EngineOptions)])
    def test_field_changes_the_payload_or_raises(self, name):
        from repro.runs import execute, spec_from_jsonable

        if name not in FIELD_CASES:
            pytest.fail(f"no simulate spec shows that {name!r} changes a result")
        document, first, second = FIELD_CASES[name]
        outcomes = []
        for value in (first, second):
            engine = dict(document.get("engine", {}), **{name: value})
            spec = spec_from_jsonable(dict(document, kind="simulate", engine=engine))
            try:
                outcomes.append(execute(spec).payload)
            except Exception as error:  # noqa: BLE001 - an abort is a result too
                outcomes.append(error)
        raised = any(isinstance(outcome, Exception) for outcome in outcomes)
        assert raised or outcomes[0] != outcomes[1]


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
