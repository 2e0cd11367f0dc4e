"""Parallel experiment campaigns.

The paper's experiments E1-E8 are embarrassingly parallel over their
``(k, n)`` grids.  This package turns each experiment suite into a
:class:`~repro.campaign.spec.Campaign` — a grid of self-contained,
deterministically seeded :class:`~repro.campaign.spec.UnitSpec` units —
and executes it serially or on a process pool with identical results
(see :mod:`repro.campaign.executor`), optionally persisting progress to
a resumable result store (see :mod:`repro.campaign.store`, which
documents the on-disk format).

Every execution knob (worker processes, result store, unit cache,
deadlines, retries, fault plan, metrics, progress) travels as one frozen
:class:`~repro.campaign.context.ExecutionContext`.  Typical use from an
experiment module::

    from ..campaign import DEFAULT_CONTEXT, run_experiment_campaign

    def run_unit(unit):          # module-level => picklable
        ...
        return {"row": [...], "passed": True}

    def run(variant="quick", ctx=DEFAULT_CONTEXT):
        report = run_experiment_campaign("e3", variant, run_unit, ctx)
        for record in report.records:
            ...

and from the command line::

    repro experiment e7 --jobs 4 --store results/
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .context import DEFAULT_CONTEXT, ExecutionContext, ProgressCallback
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .executor import CampaignReport, Worker

#: Public names mapped to the submodule that defines them, imported on
#: first access (PEP 562): every command needs the execution context,
#: but a cache hit needs neither the executor nor its process pool.
_EXPORTS = {
    "CampaignReport": ".executor",
    "Worker": ".executor",
    "execute_batch": ".executor",
    "run_campaign": ".executor",
    "Campaign": ".spec",
    "UnitSpec": ".spec",
    "build_campaign": ".spec",
    "build_cells_campaign": ".spec",
    "derive_seed": ".spec",
}

__all__ = sorted(
    [
        *_EXPORTS,
        "DEFAULT_CONTEXT",
        "ExecutionContext",
        "ProgressCallback",
        "ResultStore",
        "run_experiment_campaign",
    ]
)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


def run_experiment_campaign(
    experiment: str,
    variant: str,
    worker: Worker,
    ctx: ExecutionContext = DEFAULT_CONTEXT,
) -> CampaignReport:
    """Build the campaign for an experiment suite and execute it under ``ctx``.

    See :func:`~repro.campaign.executor.run_campaign` for how the
    context is honoured.
    """
    from .executor import run_campaign
    from .spec import build_campaign

    return run_campaign(build_campaign(experiment, variant), worker, ctx)
