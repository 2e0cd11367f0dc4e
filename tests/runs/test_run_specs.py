"""Tests for the RunSpec hierarchy: round-trips, validation, canonical JSON."""

import json

import pytest

from repro.runs import (
    BatchSweepSpec,
    ExperimentSpec,
    SimulateSpec,
    VerifySpec,
    cache_key,
    canonical_spec_json,
    make_algorithm,
    make_scheduler,
    spec_from_jsonable,
)
from repro.runs.spec import ALGORITHMS, SCHEDULERS
from repro.simulator.options import EngineOptions

#: A rigid start of 5 robots on a 12-node ring.
RIGID_START = (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0)


class TestSimulateSpec:
    def test_roundtrip_through_jsonable(self):
        spec = SimulateSpec(
            algorithm="gathering",
            n=11,
            k=4,
            steps=500,
            seed=7,
            stop="gathered",
            engine=EngineOptions(exclusive=False, multiplicity_detection=True),
        )
        assert spec_from_jsonable(spec.to_jsonable()) == spec

    def test_roundtrip_survives_json_text(self):
        spec = SimulateSpec(initial=(1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0), n=12, k=5)
        document = json.loads(json.dumps(spec.to_jsonable()))
        assert spec_from_jsonable(document) == spec

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            SimulateSpec(algorithm="teleport")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            SimulateSpec(scheduler="oracle")

    def test_unknown_stop_rejected(self):
        with pytest.raises(ValueError, match="unknown stop"):
            SimulateSpec(stop="whenever")

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SimulateSpec(n=2, k=1)
        with pytest.raises(ValueError):
            SimulateSpec(n=8, k=9)

    def test_initial_counts_must_match_n_and_k(self):
        with pytest.raises(ValueError, match="initial counts"):
            SimulateSpec(n=6, k=2, initial=(1, 1, 1, 0, 0, 0))

    def test_engine_must_be_options(self):
        with pytest.raises(TypeError):
            SimulateSpec(engine={"exclusive": True})

    def test_wrong_typed_fields_rejected(self):
        """JSON clients send strings/floats; they must not pass as ints/bools."""
        with pytest.raises(ValueError, match="must be an integer"):
            SimulateSpec(n=12.0, k=5)
        with pytest.raises(ValueError, match="must be an integer"):
            SimulateSpec(n=12, k="5")
        with pytest.raises(ValueError, match="must be an integer"):
            SimulateSpec(steps=True)
        with pytest.raises(ValueError, match="must be an integer"):
            VerifySpec(task="searching", cells=((3.0, 6),))
        with pytest.raises(ValueError, match="must be a boolean"):
            EngineOptions(exclusive="false")
        with pytest.raises(ValueError, match="must be a boolean"):
            EngineOptions(chirality="no")
        with pytest.raises(ValueError, match="presentation_seed"):
            EngineOptions(presentation_seed="7")

    def test_truthy_string_booleans_rejected_end_to_end(self):
        """The HTTP-shaped document path must reject {"exclusive": "false"}."""
        with pytest.raises(ValueError):
            spec_from_jsonable(
                {"kind": "simulate", "engine": {"exclusive": "false"}}
            )
        with pytest.raises(ValueError):
            spec_from_jsonable({"kind": "simulate", "n": 12.0, "k": 5})

    @pytest.mark.parametrize("kind", ["simulate", "batch_sweep"])
    def test_null_presentation_seed_rejected(self, kind):
        """A null seed would give one run id a different trace per run."""
        document = {"kind": kind, "algorithm": "sweep", "n": 11, "k": 4,
                    "engine": {"presentation_seed": None}}
        with pytest.raises(ValueError, match="presentation_seed must be an integer"):
            spec_from_jsonable(document)


class TestVerifyAndExperimentSpecs:
    def test_verify_roundtrip(self):
        spec = VerifySpec(task="gathering", cells=((3, 6), (2, 5)), adversary="sequential")
        assert spec_from_jsonable(spec.to_jsonable()) == spec

    def test_verify_rejects_unknown_task_and_bad_cells(self):
        with pytest.raises(ValueError, match="unknown verification task"):
            VerifySpec(task="conquest", cells=((3, 6),))
        with pytest.raises(ValueError, match="invalid cell"):
            VerifySpec(task="searching", cells=((7, 6),))
        with pytest.raises(ValueError, match="non-empty"):
            VerifySpec(task="searching", cells=())

    def test_experiment_roundtrip_and_validation(self):
        spec = ExperimentSpec(name="e3", variant="full")
        assert spec_from_jsonable(spec.to_jsonable()) == spec
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentSpec(name="e42")
        with pytest.raises(ValueError, match="variant"):
            ExperimentSpec(name="e1", variant="huge")


class TestDispatchAndKeys:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run spec kind"):
            spec_from_jsonable({"kind": "teleport"})
        with pytest.raises(ValueError):
            spec_from_jsonable(["not", "a", "dict"])

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            spec_from_jsonable({"kind": "experiment", "name": "e1", "speed": 11})

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_spec_json(ExperimentSpec(name="e1"))
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def test_cache_key_stable_and_spec_sensitive(self):
        a1 = SimulateSpec(algorithm="align", n=12, k=5, seed=3)
        a2 = SimulateSpec(algorithm="align", n=12, k=5, seed=3)
        b = SimulateSpec(algorithm="align", n=12, k=5, seed=4)
        assert cache_key(a1) == cache_key(a2)
        assert cache_key(a1) != cache_key(b)
        # Engine knobs are part of the identity too.
        c = SimulateSpec(algorithm="align", n=12, k=5, seed=3,
                         engine=EngineOptions(chirality=True))
        assert cache_key(a1) != cache_key(c)

    @pytest.mark.parametrize(
        "spec_class, fields",
        [
            (SimulateSpec, {"seed": 3, "stop": "c_star"}),
            (BatchSweepSpec, {"seeds": (0, 3), "stop": "c_star"}),
        ],
    )
    def test_round_robin_is_the_sequential_spec(self, spec_class, fields):
        """Both names step one round-robin order, so they are one run."""
        from repro.runs import execute

        named = spec_class(algorithm="align", n=12, k=5, scheduler="round_robin", **fields)
        sequential = spec_class(algorithm="align", n=12, k=5, scheduler="sequential", **fields)
        assert named == sequential
        assert named.scheduler == "sequential"
        assert spec_from_jsonable(named.to_jsonable()) == sequential
        assert cache_key(named) == cache_key(sequential)
        assert execute(named).payload == execute(sequential).payload

    @pytest.mark.parametrize(
        "make, value",
        [
            (
                lambda seed: SimulateSpec(
                    algorithm="align", n=12, k=5, seed=seed, initial=RIGID_START, stop="c_star"
                ),
                7,
            ),
            (
                lambda seed: SimulateSpec(
                    algorithm="align", n=12, k=5, seed=3, stop="c_star",
                    engine=EngineOptions(chirality=True, presentation_seed=seed),
                ),
                9,
            ),
        ],
        ids=["seed-with-initial-and-unseeded-scheduler", "presentation-seed-under-chirality"],
    )
    def test_a_seed_that_cannot_act_is_stored_as_0(self, make, value):
        """Seeding nothing the run draws from, both seeds are one run."""
        from repro.runs import execute

        default, other = make(0), make(value)
        assert other == default
        assert cache_key(other) == cache_key(default)
        assert spec_from_jsonable(other.to_jsonable()) == default
        assert execute(other).payload == execute(default).payload

    def test_a_seeded_scheduler_keeps_its_seed_beside_initial(self):
        spec = SimulateSpec(n=12, k=5, seed=7, initial=RIGID_START, scheduler="asynchronous")
        assert spec.seed == 7

    def test_registries_instantiate(self):
        for name in ALGORITHMS:
            assert make_algorithm(name) is not None
        for name in SCHEDULERS:
            assert make_scheduler(name, seed=1) is not None
