"""Parallel experiment campaigns.

The paper's experiments E1-E8 are embarrassingly parallel over their
``(k, n)`` grids.  This package turns each experiment suite into a
:class:`~repro.campaign.spec.Campaign` — a grid of self-contained,
deterministically seeded :class:`~repro.campaign.spec.UnitSpec` units —
and executes it serially or on a process pool with identical results
(see :mod:`repro.campaign.executor`), optionally persisting progress to
a resumable JSONL result store (see :mod:`repro.campaign.store`, which
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

from typing import Optional

from .context import DEFAULT_CONTEXT, ExecutionContext, ProgressCallback
from .executor import (
    BatchWorker,
    CampaignReport,
    Worker,
    execute_batch,
    run_campaign,
)
from .spec import Campaign, UnitSpec, build_campaign, build_cells_campaign, derive_seed
from .store import ResultStore

__all__ = [
    "BatchWorker",
    "Campaign",
    "CampaignReport",
    "DEFAULT_CONTEXT",
    "ExecutionContext",
    "ProgressCallback",
    "ResultStore",
    "UnitSpec",
    "build_campaign",
    "build_cells_campaign",
    "derive_seed",
    "execute_batch",
    "run_campaign",
    "run_experiment_campaign",
]


def run_experiment_campaign(
    experiment: str,
    variant: str,
    worker: Worker,
    ctx: ExecutionContext = DEFAULT_CONTEXT,
    *,
    batch_worker: Optional[BatchWorker] = None,
) -> CampaignReport:
    """Build the campaign for an experiment suite and execute it under ``ctx``.

    See :func:`~repro.campaign.executor.run_campaign` for how the
    context and ``batch_worker`` are honoured.
    """
    campaign = build_campaign(experiment, variant)
    return run_campaign(campaign, worker, ctx, batch_worker=batch_worker)
