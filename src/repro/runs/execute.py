"""The single execution front door: ``execute(spec) -> RunResult``.

Every execution path of the repository — CLI subcommands, the HTTP
service, tests and benchmarks — routes through :func:`execute`, which
dispatches a :class:`~repro.runs.spec.RunSpec` to the engine, the model
checker or the experiment-campaign layer and returns a JSON-safe result
payload.  With a :class:`~repro.runs.cache.ResultCache` attached, a
repeated run with an identical spec is served from disk without a single
engine step, and campaign workers de-duplicate identical units across
campaigns through the same store.

How a run executes — worker processes, result store, progress
callback, cache, refresh, deadline, retry policy, fault plan and
metrics sink — travels as one frozen
:class:`~repro.campaign.context.ExecutionContext`, deliberately outside
the spec: it changes how fast a run completes and what side artifacts
it writes, never what the result means — so it never perturbs a run id
or a cache key.

Each executor imports the engine it runs, so a cache hit loads none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from hashlib import sha256
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..campaign.context import DEFAULT_CONTEXT, ExecutionContext
from ..experiments import EXPERIMENTS, experiment_module
from ..faults.deadline import call_with_deadline
from .cache import ResultCache, cache_key
from .spec import (
    STOP_CONDITIONS,
    BatchSweepSpec,
    ExperimentSpec,
    RunSpec,
    SimulateSpec,
    VerifySpec,
    make_algorithm,
    make_scheduler,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.configuration import Configuration
    from ..experiments.report import ExperimentResult

__all__ = ["RunResult", "execute", "execute_experiments"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :func:`execute` call.

    Attributes:
        run_id: content-addressed identifier of the spec (stable across
            processes; the HTTP service hands it out as the run id).
        spec: the executed spec.
        payload: JSON-safe result document (shape depends on the kind).
        cached: whether the payload was served from the result cache.
        deterministic: whether the payload is a deterministic function of
            the spec.  ``False`` when a campaign unit failed transiently
            (worker exception or process death) — such a payload is never
            cached and callers holding results in memory (the HTTP
            service) should allow a retry.
    """

    run_id: str
    spec: RunSpec
    payload: Dict[str, object]
    cached: bool = False
    deterministic: bool = True

    @property
    def ok(self) -> bool:
        """Overall success flag (``True`` for kinds without one)."""
        return bool(self.payload.get("passed", True))


# --------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------- #
def _simulate_payload(configuration: Configuration, trace) -> Dict[str, object]:
    """The ``simulate`` result document of one finished trace.

    Every lane of :func:`_run_lanes` goes through it, and a lane's trace
    does not depend on how many lanes run beside it, so each batch-sweep
    run document equals the stand-alone ``simulate`` document of the
    same (algorithm, seed, options) run.
    """
    final = trace.final_configuration
    frames: List[Dict[str, object]] = []
    for event in trace.events:
        if not event.moves:
            continue
        frames.append(
            {
                "step": event.step,
                "moves": [[m.robot_id, m.source, m.target] for m in event.moves],
                "counts": list(event.configuration_after.counts),
                "art": event.configuration_after.ascii_art(),
            }
        )
    return {
        "initial_counts": list(configuration.counts),
        "initial_art": configuration.ascii_art(),
        "frames": frames,
        "steps_executed": trace.num_steps,
        "total_moves": trace.total_moves,
        "stopped_reason": trace.stopped_reason,
        "final_counts": list(final.counts),
        "final_art": final.ascii_art(),
        "reached_c_star": final.is_c_star(),
        "gathered": final.num_occupied == 1,
        "had_collision": trace.had_collision,
        "trace_sha256": sha256(trace.canonical_bytes()).hexdigest(),
    }


def _simulate_job(spec: SimulateSpec) -> Dict[str, object]:
    """Module-level (hence picklable) body of one ``simulate`` run.

    Kept a plain top-level function so a deadline-bounded execution can
    ship it to a killable worker process by reference (see
    :func:`~repro.faults.call_with_deadline`).  The run is a one-lane
    batch, through the same body as a ``batch_sweep`` member.
    """
    from ..core.configuration import Configuration
    from ..workloads.generators import random_rigid_configuration

    if spec.initial is not None:
        configuration = Configuration(spec.initial)
    else:
        configuration = random_rigid_configuration(spec.n, spec.k, random.Random(spec.seed))
    return _run_lanes(spec, [configuration], [spec.seed])[0]


def _run_lanes(
    spec: Union[SimulateSpec, BatchSweepSpec],
    configurations: List[Configuration],
    seeds: List[int],
) -> List[Dict[str, object]]:
    """Run one lane per start (lane ``i`` scheduled with ``seeds[i]``).

    Returns each lane's ``simulate`` document.
    """
    from ..batchsim import BatchEngine

    engine = BatchEngine(
        make_algorithm(spec.algorithm),
        configurations,
        scheduler_factory=lambda index: make_scheduler(spec.scheduler, seeds[index]),
        options=spec.engine,
    )
    engine.run(
        spec.steps, stop_configuration=STOP_CONDITIONS.get(spec.stop), stop_invariant=True
    )
    return [
        _simulate_payload(configuration, engine.lane_trace(index))
        for index, configuration in enumerate(configurations)
    ]


def _execute_simulate(
    spec: SimulateSpec, ctx: ExecutionContext
) -> Tuple[Dict[str, object], bool, bool]:
    payload = call_with_deadline(
        _simulate_job, (spec,), timeout=ctx.timeout, what="simulate run"
    )
    return payload, False, False


# --------------------------------------------------------------------- #
# batch sweep
# --------------------------------------------------------------------- #
def _batchsweep_job(spec: BatchSweepSpec) -> Dict[str, object]:
    """Module-level (hence picklable) body of one ``batch_sweep`` run.

    Like :func:`_simulate_job`: top-level by design, so the deadline
    wrapper can execute it in a killable worker process.
    """
    from ..workloads.generators import random_rigid_configuration

    configurations = [
        random_rigid_configuration(spec.n, spec.k, random.Random(seed))
        for seed in spec.seeds
    ]
    # Each run document is exactly what executing ``spec.member(seed)``
    # would return — the seeds themselves live in ``"seeds"`` alongside.
    runs = _run_lanes(spec, configurations, list(spec.seeds))
    return {
        "algorithm": spec.algorithm,
        "n": spec.n,
        "k": spec.k,
        "seeds": list(spec.seeds),
        "num_runs": len(runs),
        "runs": runs,
        "passed": not any(run["had_collision"] for run in runs),
    }


def _execute_batchsweep(
    spec: BatchSweepSpec, ctx: ExecutionContext
) -> Tuple[Dict[str, object], bool, bool]:
    payload = call_with_deadline(
        _batchsweep_job, (spec,), timeout=ctx.timeout, what="batch sweep"
    )
    return payload, False, False


# --------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------- #
def _execute_verify(
    spec: VerifySpec, ctx: ExecutionContext
) -> Tuple[Dict[str, object], bool, bool]:
    from ..modelcheck.grid import run_verify_campaign

    report = run_verify_campaign(
        spec.task,
        list(spec.cells),
        ctx,
        adversary=spec.adversary,
        max_states=spec.max_states,
    )
    rows: List[List[object]] = []
    documents: List[Dict[str, object]] = []
    conclusive = True
    for record in report.records:
        payload = record.get("payload")
        if record.get("status") == "ok" and isinstance(payload, dict):
            rows.append(list(payload["row"]))
            documents.append(payload["result"])
            if not payload.get("passed", True):
                conclusive = False
        else:
            error = record.get("error") or {}
            rows.append(
                [
                    spec.task,
                    record.get("k"),
                    record.get("n"),
                    "-",
                    spec.adversary,
                    str(record.get("status", "error")).upper(),
                    "-",
                    "-",
                    f"{error.get('type')}: {error.get('message')}",
                ]
            )
            conclusive = False
    payload = {
        "task": spec.task,
        "adversary": spec.adversary,
        "rows": rows,
        "cells": documents,
        "passed": conclusive,
    }
    # Records with a non-ok status are transient execution failures
    # (worker exception / process death), not deterministic verdicts —
    # they must not be replayed from the whole-run cache forever.  The
    # payload itself is history-independent: resumed/cached units yield
    # the same rows and documents as freshly executed ones.
    transient = any(record.get("status") != "ok" for record in report.records)
    return payload, transient, False


# --------------------------------------------------------------------- #
# experiment
# --------------------------------------------------------------------- #
def _execute_experiment(
    spec: ExperimentSpec, ctx: ExecutionContext
) -> Tuple[Dict[str, object], bool, bool]:
    return _experiment_outcome(EXPERIMENTS[spec.name](spec.variant, ctx))


def _experiment_outcome(result: ExperimentResult) -> Tuple[Dict[str, object], bool, bool]:
    """``(payload, transient, history_dependent)`` of one experiment result."""
    payload = {
        "experiment": result.experiment,
        "title": result.title,
        "header": list(result.header),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
        "passed": result.passed,
        "rendered": result.render(),
    }
    # A deterministic FAIL (a theorem check disagreeing) is a valid,
    # cacheable result; a crashed/errored unit is transient and is not.
    # Notes describing how the run was served (resume, unit-cache hits)
    # make the rendered payload history-dependent: correct, but not a
    # pure function of the spec, so it must not be cached.
    transient = result.transient_failures > 0
    history_dependent = result.history_dependent_notes > 0
    return payload, transient, history_dependent


#: Each executor returns ``(payload, transient, history_dependent)``:
#: ``transient`` — a unit failed non-deterministically (callers should
#: allow a retry); ``history_dependent`` — the payload is correct but
#: reflects how it was served (resume/cache notes), so it must not be
#: stored as the spec's canonical result.
_EXECUTORS: Dict[type, Callable[[RunSpec, ExecutionContext], Tuple[Dict[str, object], bool, bool]]] = {
    SimulateSpec: _execute_simulate,
    BatchSweepSpec: _execute_batchsweep,
    VerifySpec: _execute_verify,
    ExperimentSpec: _execute_experiment,
}


class _WriteOnlyCache:
    """Cache proxy whose reads always miss (used by ``refresh=True``).

    A refreshed run must re-execute *everything* — including campaign
    units the de-duplication cache already knows — while still storing
    the fresh results back for subsequent runs.
    """

    def __init__(self, cache: ResultCache) -> None:
        self._cache = cache

    def unit_key(self, worker_name: str, unit: Dict[str, object]) -> str:
        return self._cache.unit_key(worker_name, unit)

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, document: Dict[str, object]) -> str:
        return self._cache.put(key, document)


def _cached_result(spec: RunSpec, run_id: str, ctx: ExecutionContext) -> Optional[RunResult]:
    """The whole-run cache's result for ``spec``, if ``ctx`` lets it answer."""
    result_cache = ctx.cache
    if result_cache is not None and ctx.store is None and not ctx.refresh:
        document = result_cache.get(run_id)
        if document is not None and "payload" in document:
            return RunResult(
                run_id=run_id,
                spec=spec,
                payload=document["payload"],  # type: ignore[arg-type]
                cached=True,
            )
    return None


def _run_context(ctx: ExecutionContext) -> ExecutionContext:
    """The context executors run under: a refresh reads no cache entry."""
    if ctx.refresh and ctx.cache is not None:
        return replace(ctx, cache=_WriteOnlyCache(ctx.cache))
    return ctx


def _finish(
    spec: RunSpec,
    run_id: str,
    ctx: ExecutionContext,
    outcome: Tuple[Dict[str, object], bool, bool],
) -> RunResult:
    """Store an executed run's payload in the whole-run cache, if it may be."""
    payload, transient, history_dependent = outcome
    result_cache = ctx.cache
    # Whole-run entries are written only for runs whose payload is the
    # spec's canonical result: no transient worker failures (those must
    # be re-attempted, not replayed), no history-dependent serving notes,
    # and no store attached (:func:`_cached_result` skips the lookup
    # symmetrically).
    if result_cache is not None and ctx.store is None and not transient and not history_dependent:
        result_cache.put(
            run_id, {"spec": spec.to_jsonable(), "payload": payload}
        )
    return RunResult(
        run_id=run_id, spec=spec, payload=payload, cached=False, deterministic=not transient
    )


def execute(
    spec: RunSpec, ctx: Optional[ExecutionContext] = None, **knobs: object
) -> RunResult:
    """Execute one run spec and return its result.

    Args:
        spec: what to run.
        ctx: how to run it (see
            :class:`~repro.campaign.context.ExecutionContext`); ``None``
            means :data:`~repro.campaign.context.DEFAULT_CONTEXT`.
        **knobs: :class:`~repro.campaign.context.ExecutionContext` field
            overrides applied on top of ``ctx`` (e.g. ``cache=DIR``,
            ``jobs=4``); an unknown name raises :class:`TypeError`.

    Returns:
        A :class:`RunResult`; ``cached`` is ``True`` iff the payload was
        served from the cache without executing anything.
    """
    executor = _EXECUTORS.get(type(spec))
    if executor is None:
        raise TypeError(f"cannot execute spec of type {type(spec).__name__}")
    ctx = replace(ctx or DEFAULT_CONTEXT, **knobs)
    run_id = cache_key(spec)
    cached = _cached_result(spec, run_id, ctx)
    if cached is not None:
        return cached
    return _finish(spec, run_id, ctx, executor(spec, _run_context(ctx)))


def execute_experiments(
    specs: Sequence[ExperimentSpec],
    ctx: Optional[ExecutionContext] = None,
    emit: Optional[Callable[[RunResult], None]] = None,
) -> List[RunResult]:
    """Execute several experiment specs, all their units on one pool.

    Each result equals :func:`execute` of its spec under ``ctx``.  The
    whole-run cache answers first; every other experiment's campaign
    then goes to one :func:`~repro.campaign.executor.run_campaigns`
    call, so with ``ctx.jobs > 1`` the units of all of them share one
    pool and no experiment waits for another's slowest unit.  A fully
    cached call imports no experiment and starts no pool.

    ``emit`` receives the results in ``specs`` order, each as soon as it
    and every result before it are ready.
    """
    ctx = ctx or DEFAULT_CONTEXT
    results: List[Optional[RunResult]] = [None] * len(specs)
    emitted = 0

    def ready(index: int, result: RunResult) -> None:
        nonlocal emitted
        results[index] = result
        while emitted < len(results) and results[emitted] is not None:
            if emit is not None:
                emit(results[emitted])  # type: ignore[arg-type]
            emitted += 1

    misses = []
    for index, spec in enumerate(specs):
        run_id = cache_key(spec)
        cached = _cached_result(spec, run_id, ctx)
        if cached is not None:
            ready(index, cached)
        else:
            misses.append((index, spec, run_id, experiment_module(spec.name)))
    if misses:
        from ..campaign.executor import run_campaigns
        from ..campaign.spec import build_campaign

        def settled(position: int, report) -> None:
            index, spec, run_id, module = misses[position]
            outcome = _experiment_outcome(module.report_result(report))
            ready(index, _finish(spec, run_id, ctx, outcome))

        run_campaigns(
            [
                (build_campaign(spec.name, spec.variant), module.run_unit)
                for _, spec, _, module in misses
            ],
            _run_context(ctx),
            settled,
        )
    return results  # type: ignore[return-value]
