"""Unified execution layer: declarative RunSpecs, one executor, one cache.

The repository grew three parallel execution paths — direct engine runs
(:mod:`repro.simulator.runner`), verification grids
(:mod:`repro.modelcheck.grid`) and the experiment campaigns
(:mod:`repro.experiments`) — each with its own parameter plumbing.  This
package gives them one front door:

* :mod:`repro.runs.spec` — frozen, JSON-serialisable
  :class:`~repro.runs.spec.RunSpec` objects
  (:class:`~repro.runs.spec.SimulateSpec`,
  :class:`~repro.runs.spec.BatchSweepSpec`,
  :class:`~repro.runs.spec.VerifySpec`,
  :class:`~repro.runs.spec.ExperimentSpec`), each embedding the shared
  :class:`~repro.simulator.options.EngineOptions` bundle;
* :mod:`repro.runs.execute` — the single
  :func:`~repro.runs.execute.execute` dispatcher, taking the run's
  :class:`~repro.campaign.context.ExecutionContext` (re-exported here);
* :mod:`repro.runs.cache` — the content-addressed
  :class:`~repro.runs.cache.ResultCache` serving repeated runs from disk
  and de-duplicating identical campaign units.

Typical use::

    from repro.runs import SimulateSpec, execute

    spec = SimulateSpec(algorithm="align", n=12, k=5, steps=300, stop="c_star")
    result = execute(spec, cache=".repro-cache")
    print(result.run_id, result.cached, result.payload["total_moves"])

The CLI (``repro demo`` / ``repro verify`` / ``repro experiment``) and
the HTTP service (``repro serve``, :mod:`repro.service`) are thin shells
over exactly these calls.
"""

from ..campaign.context import ExecutionContext
from ..simulator.options import EngineOptions
from .cache import CACHE_SCHEMA_VERSION, ResultCache, cache_key
from .execute import RunResult, execute
from .spec import (
    ALGORITHMS,
    SCHEDULERS,
    STOP_CONDITIONS,
    BatchSweepSpec,
    ExperimentSpec,
    RunSpec,
    SimulateSpec,
    VerifySpec,
    canonical_spec_json,
    make_algorithm,
    make_scheduler,
    spec_from_jsonable,
)

__all__ = [
    "ALGORITHMS",
    "SCHEDULERS",
    "STOP_CONDITIONS",
    "BatchSweepSpec",
    "CACHE_SCHEMA_VERSION",
    "EngineOptions",
    "ExecutionContext",
    "ExperimentSpec",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SimulateSpec",
    "VerifySpec",
    "cache_key",
    "canonical_spec_json",
    "execute",
    "make_algorithm",
    "make_scheduler",
    "spec_from_jsonable",
]
