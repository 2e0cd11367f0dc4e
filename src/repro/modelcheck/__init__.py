"""Exhaustive adversarial model checking (`repro verify`).

The simulator answers "what happened on *this* schedule"; this package
answers "what can happen on *every* schedule".  For one algorithm on one
``(k, n)`` cell it explores the complete reachable system-state graph
under an exhaustive SSYNC (or sequential) adversary — every activation
subset, every view-presentation choice, every direction tie-break — and
returns a machine-checked verdict with a concrete witness trace for
every failure:

* :class:`~repro.modelcheck.checker.ModelChecker` /
  :func:`~repro.modelcheck.checker.check_cell` — single-cell API;
* :func:`~repro.modelcheck.grid.build_verify_campaign` and
  :func:`~repro.modelcheck.grid.run_unit` — a grid as a campaign and its
  worker, run by :func:`~repro.campaign.executor.run_campaign`
  (``--jobs``, result stores, resume);
* :mod:`repro.modelcheck.tasks` — the per-task goal semantics.

See the README's "Verification" section for the verdict semantics and
the soundness caveats.
"""

from .checker import ModelChecker, ModelCheckResult, Verdict, Witness, WitnessStep, check_cell
from .grid import build_verify_campaign, run_unit
from .tasks import TASKS, TaskSpec, make_task_spec

__all__ = [
    "ModelChecker",
    "ModelCheckResult",
    "Verdict",
    "Witness",
    "WitnessStep",
    "check_cell",
    "build_verify_campaign",
    "run_unit",
    "TASKS",
    "TaskSpec",
    "make_task_spec",
]
