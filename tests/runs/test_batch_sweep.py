"""Tests for BatchSweepSpec and its batched executor."""

import pytest

from repro.runs import (
    BatchSweepSpec,
    EngineOptions,
    SimulateSpec,
    cache_key,
    canonical_spec_json,
    execute,
    spec_from_jsonable,
)


class TestSpec:
    def test_roundtrip_through_jsonable(self):
        spec = BatchSweepSpec(
            algorithm="ring-clearing",
            n=13,
            k=5,
            steps=150,
            seeds=(3, 1, 4),
            scheduler="semi_synchronous",
            engine=EngineOptions(collision_policy="record"),
        )
        again = spec_from_jsonable(spec.to_jsonable())
        assert again == spec
        assert canonical_spec_json(again) == canonical_spec_json(spec)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            BatchSweepSpec(algorithm="teleport")
        with pytest.raises(ValueError, match="unknown scheduler"):
            BatchSweepSpec(scheduler="oracle")
        with pytest.raises(ValueError, match="unknown stop"):
            BatchSweepSpec(stop="never")
        with pytest.raises(ValueError, match="seeds must be non-empty"):
            BatchSweepSpec(seeds=())
        with pytest.raises(ValueError, match="must be an integer"):
            BatchSweepSpec(seeds=(0, True))
        with pytest.raises(ValueError, match="n >= 3"):
            BatchSweepSpec(n=2, k=1)

    def test_member_spec(self):
        spec = BatchSweepSpec(
            algorithm="align", n=12, k=5, steps=300, seeds=(7, 9), stop="c_star"
        )
        member = spec.member(9)
        assert member == SimulateSpec(
            algorithm="align", n=12, k=5, steps=300, seed=9, stop="c_star"
        )

    def test_cache_key_is_seed_order_sensitive(self):
        a = BatchSweepSpec(seeds=(1, 2))
        b = BatchSweepSpec(seeds=(2, 1))
        assert cache_key(a) != cache_key(b)


class TestExecuteParity:
    def test_runs_equal_member_payloads(self):
        spec = BatchSweepSpec(
            algorithm="align", n=12, k=5, steps=400, seeds=(0, 1, 2, 3), stop="c_star"
        )
        result = execute(spec)
        payload = result.payload
        assert payload["num_runs"] == 4
        assert payload["seeds"] == [0, 1, 2, 3]
        for index, seed in enumerate(spec.seeds):
            assert payload["runs"][index] == execute(spec.member(seed)).payload
        assert payload["passed"]

    def test_collision_recording_parity(self):
        spec = BatchSweepSpec(
            algorithm="sweep",
            n=10,
            k=4,
            steps=40,
            seeds=(5, 6),
            scheduler="synchronous",
            engine=EngineOptions(collision_policy="record"),
        )
        result = execute(spec)
        for index, seed in enumerate(spec.seeds):
            assert result.payload["runs"][index] == execute(spec.member(seed)).payload
        assert result.payload["passed"] == (
            not any(run["had_collision"] for run in result.payload["runs"])
        )


class TestCaching:
    def test_cache_roundtrip(self, tmp_path):
        spec = BatchSweepSpec(algorithm="align", n=9, k=4, steps=60, seeds=(1, 2))
        cache = str(tmp_path / "cache")
        first = execute(spec, cache=cache)
        assert not first.cached
        second = execute(spec, cache=cache)
        assert second.cached
        assert second.payload == first.payload
        assert second.run_id == first.run_id
        refreshed = execute(spec, cache=cache, refresh=True)
        assert not refreshed.cached
        assert refreshed.payload == first.payload
