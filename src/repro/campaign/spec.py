"""Campaign specifications: the work grid of an experiment run.

A *campaign* is the embarrassingly parallel work grid behind one
experiment: one :class:`UnitSpec` per ``(k, n)`` pair of the suite
(algorithm × suite × scheduler × seeds).  Units are self-contained and
picklable — a worker process receives nothing but the unit dictionary —
and their seeds are derived deterministically from the suite's base seed
with a stable hash, so the same campaign produces the same results
whether it runs serially, in a process pool, or resumes from a partial
result store.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..workloads.suites import Suite, get_suite

__all__ = ["UnitSpec", "Campaign", "build_campaign", "build_cells_campaign", "derive_seed"]


def derive_seed(
    base_seed: int, experiment: str, variant: str, k: int, n: int, index: int = 0
) -> int:
    """Deterministic per-unit RNG seed.

    Uses SHA-256 (not ``hash()``) so the value is stable across
    processes, Python versions and ``PYTHONHASHSEED`` settings — the
    cornerstone of serial-vs-parallel reproducibility.  The grid index
    is part of the material so a ``(k, n)`` pair appearing twice in a
    suite samples independently.
    """
    material = f"{experiment}:{variant}:{k}:{n}:{index}:{base_seed}".encode("ascii")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


@dataclass(frozen=True)
class UnitSpec:
    """One independently executable cell of a campaign grid.

    Attributes:
        campaign: campaign identifier (``"<experiment>-<variant>"``).
        experiment: experiment identifier (``e1`` .. ``e7``).
        variant: suite variant (``quick`` or ``full``).
        index: position in the campaign grid (defines the aggregate order).
        unit_id: stable identifier (``"u003-k005-n012"``), unique within
            the campaign even when a ``(k, n)`` pair appears twice in a
            suite; used by the result store to recognise
            already-completed units on resume.
        k: number of robots.
        n: ring size.
        seed: deterministic per-unit RNG seed (see :func:`derive_seed`).
        samples: number of random starting configurations.
        steps_factor: step-budget multiplier for perpetual runs.
        extra: additional worker parameters as a sorted tuple of
            ``(key, value)`` pairs (kept as a tuple so the spec stays
            hashable); surfaced to workers as a plain dict.  Used by
            grids that are not plain simulation sweeps, e.g. the model
            checker's ``(task, adversary, max_states)`` cells.
    """

    campaign: str
    experiment: str
    variant: str
    index: int
    unit_id: str
    k: int
    n: int
    seed: int
    samples: int
    steps_factor: int
    extra: Tuple[Tuple[str, object], ...] = field(default=())

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form handed to worker processes and stored on disk."""
        return {
            "campaign": self.campaign,
            "experiment": self.experiment,
            "variant": self.variant,
            "index": self.index,
            "unit_id": self.unit_id,
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "samples": self.samples,
            "steps_factor": self.steps_factor,
            "extra": dict(self.extra),
        }


@dataclass(frozen=True)
class Campaign:
    """A named grid of independent units derived from one suite."""

    name: str
    experiment: str
    variant: str
    description: str
    units: Tuple[UnitSpec, ...]

    @property
    def num_units(self) -> int:
        """Number of units in the grid."""
        return len(self.units)


def build_campaign(experiment: str, variant: str = "quick") -> Campaign:
    """Expand a named suite into a campaign grid.

    Every ``(k, n)`` pair of the suite becomes one unit.  The grid
    index is baked into both the unit id and the seed, so a pair that
    appears twice in a suite (e.g. ``(8, 30)`` in the e7 full sweep)
    yields two distinct, independently seeded units and resume stays
    unambiguous.
    """
    suite: Suite = get_suite(experiment, variant)
    return build_cells_campaign(
        experiment,
        variant,
        suite.description,
        suite.pairs,
        base_seed=suite.seed,
        samples=suite.samples_per_pair,
        steps_factor=suite.steps_factor,
    )


def build_cells_campaign(
    experiment: str,
    variant: str,
    description: str,
    cells: Sequence[Tuple[int, int]],
    *,
    base_seed: int = 20130701,
    samples: int = 1,
    steps_factor: int = 1,
    extra: Tuple[Tuple[str, object], ...] = (),
) -> Campaign:
    """Expand an explicit ``(k, n)`` cell list into a campaign grid.

    Unlike :func:`build_campaign` this does not consult the named suites:
    callers (e.g. ``repro verify``) supply the cells directly, plus
    worker parameters in ``extra`` (shared by every unit).  Units keep
    the same stable-id and deterministic-seed scheme, so result stores
    resume across invocations with the same cell list.
    """
    name = f"{experiment}-{variant}"
    units = tuple(
        UnitSpec(
            campaign=name,
            experiment=experiment,
            variant=variant,
            index=index,
            unit_id=f"u{index:03d}-k{k:03d}-n{n:03d}",
            k=k,
            n=n,
            seed=derive_seed(base_seed, experiment, variant, k, n, index),
            samples=samples,
            steps_factor=steps_factor,
            extra=tuple(sorted(extra)),
        )
        for index, (k, n) in enumerate(cells)
    )
    return Campaign(
        name=name,
        experiment=experiment,
        variant=variant,
        description=description,
        units=units,
    )
