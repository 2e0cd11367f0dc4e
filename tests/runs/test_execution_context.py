"""The execution context: one frozen object, checked in one place.

Every :class:`ExecutionContext` field is execution context — it may
change how fast a run completes and what it writes on the side, never a
run id, a cache key or a payload byte.  The invariant test loops over
``dataclasses.fields``, so a field added later is covered automatically
(it fails until it gets an entry in :func:`_non_default_values`).
"""

import inspect
import json
from dataclasses import fields, replace

import pytest

from repro.campaign import DEFAULT_CONTEXT, ExecutionContext, ResultStore
from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.faults import FaultPlan, RetryPolicy
from repro.runs import ExperimentSpec, ResultCache, VerifySpec, cache_key, execute

SPECS = {
    "verify": VerifySpec(task="searching", cells=((3, 6), (3, 7))),
    "experiment": ExperimentSpec(name="e1", variant="quick"),
}


class _Counter:
    """Duck-typed metrics sink."""

    def __init__(self):
        self.counts = {}

    def inc(self, name, value=1, **labels):
        self.counts[name] = self.counts.get(name, 0) + value


def _non_default_values(tmp_path):
    """One non-default value per context field."""
    return {
        "jobs": 2,
        "store": str(tmp_path / "store"),
        "progress": lambda done, total, record: None,
        "cache": str(tmp_path / "cache"),
        "refresh": True,
        "timeout": 120.0,
        "retry": RetryPolicy(base_delay_s=0.0),
        "fault_plan": FaultPlan(
            seed=3, rates={"slow_io": 0.5}, slow_s=0.001, state_dir=str(tmp_path / "faults")
        ),
        "metrics": _Counter(),
    }


def _payload_bytes(result):
    return json.dumps(result.payload, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Default-context result and written cache keys, per spec."""
    out = {}
    for name, spec in SPECS.items():
        cache = ResultCache(str(tmp_path_factory.mktemp(f"baseline-{name}")))
        result = execute(spec, cache=cache)
        out[name] = (result, set(cache.keys()))
    return out


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("field_name", [f.name for f in fields(ExecutionContext)])
def test_no_field_changes_run_id_cache_keys_or_payload(
    tmp_path, baselines, spec_name, field_name
):
    spec = SPECS[spec_name]
    value = _non_default_values(tmp_path)[field_name]
    assert value != getattr(DEFAULT_CONTEXT, field_name)
    # Every variant runs with a cache attached so the keys it writes can
    # be compared; for the ``cache`` field the value *is* that cache.
    ctx = ExecutionContext(cache=str(tmp_path / "cache"))
    ctx = replace(ctx, **{field_name: value})
    result = execute(spec, ctx)
    baseline, baseline_keys = baselines[spec_name]
    assert result.run_id == baseline.run_id == cache_key(spec)
    assert _payload_bytes(result) == _payload_bytes(baseline)
    written = set(ctx.cache.keys())
    assert written and written <= baseline_keys


def test_every_experiment_runs_as_variant_and_ctx():
    for name, run in EXPERIMENTS.items():
        parameters = list(inspect.signature(run).parameters.values())
        assert [p.name for p in parameters] == ["variant", "ctx"], name
        assert parameters[0].default == "quick", name
        assert parameters[1].default is DEFAULT_CONTEXT, name


class TestValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"jobs": 0},
            {"timeout": 0.0},
            {"timeout": -1.0},
        ],
    )
    def test_invalid_knobs_raise(self, knobs):
        with pytest.raises(ValueError):
            ExecutionContext(**knobs)
        with pytest.raises(ValueError):
            execute(SPECS["verify"], **knobs)

    def test_unknown_knob_is_a_type_error(self):
        with pytest.raises(TypeError):
            execute(SPECS["verify"], engine="vector")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "searching", "--k", "3", "--n", "6", "--shards", "2"],
            ["serve", "--port", "0", "--shards", "2"],
            ["experiment", "e1", "--jobs", "0"],
            ["batch", "align", "12", "5", "--timeout", "0"],
        ],
    )
    def test_cli_reports_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCoercion:
    def test_paths_become_objects_carrying_the_fault_plan(self, tmp_path):
        plan = FaultPlan(seed=1)
        ctx = ExecutionContext(
            store=str(tmp_path / "store"), cache=tmp_path / "cache", fault_plan=plan
        )
        assert isinstance(ctx.store, ResultStore) and ctx.store.fault_plan is plan
        assert isinstance(ctx.cache, ResultCache) and ctx.cache.fault_plan is plan
        assert ctx.cache.root == str(tmp_path / "cache")

    def test_instances_pass_through_and_survive_replace(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        ctx = ExecutionContext(cache=cache)
        assert ctx.cache is cache
        assert replace(ctx, jobs=3).cache is cache

    def test_context_is_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CONTEXT.jobs = 4
