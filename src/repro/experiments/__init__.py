"""Experiments E1-E8: one module per reproduced paper artifact.

E1-E7 reproduce the paper's tables and figures by simulation and
enumeration; E8 machine-checks the verdict tables with the exhaustive
adversarial model checker.
"""

from __future__ import annotations

from importlib import import_module
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from ..campaign.context import DEFAULT_CONTEXT, ExecutionContext
from .report import ExperimentResult, render_table

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..campaign.executor import Worker
    from ..campaign.spec import Campaign

#: Experiment identifiers mapped to the modules that run them.
_MODULES = {
    "e1": "e1_configuration_census",
    "e2": "e2_align_convergence",
    "e3": "e3_ring_clearing",
    "e4": "e4_nminusthree",
    "e5": "e5_gathering",
    "e6": "e6_feasibility_table",
    "e7": "e7_scaling",
    "e8": "e8_verification",
}


def experiment_module(name: str) -> ModuleType:
    """The module of experiment ``name``, imported on first use.

    Every experiment module defines its campaign worker ``run_unit`` and
    ``report_result(report)``, which turns the campaign's report into
    the :class:`ExperimentResult`.
    """
    return import_module(f"{__name__}.{_MODULES[name]}")


def _campaign_job(name: str, variant: str) -> Tuple[Campaign, Worker]:
    """Experiment ``name``'s ``variant`` campaign and the worker of its units."""
    from ..campaign.spec import build_campaign

    return build_campaign(name, variant), experiment_module(name).run_unit


def _deferred_run(name: str) -> Callable[..., ExperimentResult]:
    """The runner of experiment ``name``: its campaign, run and reported."""

    def run(variant: str = "quick", ctx: ExecutionContext = DEFAULT_CONTEXT) -> ExperimentResult:
        from ..campaign.executor import run_campaign

        report = run_campaign(*_campaign_job(name, variant), ctx)
        return experiment_module(name).report_result(report)

    return run


#: Registry mapping experiment identifiers to their runner functions.
#: A runner imports its experiment module (and the engines it uses)
#: only when it is called, so parsing a command line or serving a cached
#: result loads none of them.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    name: _deferred_run(name) for name in _MODULES
}

__all__ = ["EXPERIMENTS", "ExperimentResult", "experiment_module", "render_table"]
