"""Verdicts, witnesses and result documents of the model checker.

These value objects are filled in by the packed-state frontier engine
(:mod:`repro.modelcheck.frontier`), and their JSON renderings are
required to be byte-identical across runs, ``--jobs`` settings and
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..simulator.branching import Profile

__all__ = [
    "DEFAULT_MAX_STATES",
    "Verdict",
    "Witness",
    "WitnessStep",
    "ModelCheckResult",
]

#: Default per-cell exploration cap; exceeding it yields ``UNKNOWN``.
DEFAULT_MAX_STATES = 150_000

Counts = Tuple[int, ...]


class Verdict(Enum):
    """Outcome of one model-checking run."""

    SOLVED = "solved"
    COLLISION = "collision"
    LIVELOCK = "livelock"
    UNKNOWN = "unknown"
    ERROR = "error"


@dataclass(frozen=True)
class WitnessStep:
    """One step of a counterexample: the profile played and its effect."""

    profile: Profile
    counts_after: Counts

    def as_jsonable(self) -> Dict[str, object]:
        """Serialise the step for witness JSON documents."""
        return {
            "profile": [a.as_jsonable() for a in self.profile],
            "after": list(self.counts_after),
        }


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample trace.

    Attributes:
        initial_counts: occupancy vector of the starting configuration.
        steps: the adversary steps played, in order.
        cycle_start: for livelocks, the index into ``steps`` at which
            the repeatable loop begins (``None`` for collisions); the
            suffix ``steps[cycle_start:]`` can be looped forever.
        note: what the trace demonstrates.
    """

    initial_counts: Counts
    steps: Tuple[WitnessStep, ...]
    cycle_start: Optional[int]
    note: str

    def as_jsonable(self) -> Dict[str, object]:
        """Serialise the full counterexample for verdict JSON documents."""
        return {
            "initial": list(self.initial_counts),
            "steps": [step.as_jsonable() for step in self.steps],
            "cycle_start": self.cycle_start,
            "note": self.note,
        }


@dataclass
class ModelCheckResult:
    """Verdict plus exploration statistics for one cell."""

    task: str
    k: int
    n: int
    algorithm: str
    adversary: str
    verdict: Verdict
    num_states: int = 0
    num_transitions: int = 0
    num_initial: int = 0
    paper_algorithm: bool = True
    elapsed_s: float = 0.0
    witness: Optional[Witness] = None
    notes: List[str] = field(default_factory=list)

    @property
    def states_per_second(self) -> float:
        """Exploration throughput, guarded against zero-duration runs.

        The packed engine finishes small cells faster than coarse clocks
        tick, so ``elapsed_s`` can legitimately be ``0.0``; the ratio
        reports ``0.0`` then (never ``inf``/``nan``), keeping every JSON
        rendering finite.
        """
        if self.elapsed_s > 0:
            return self.num_states / self.elapsed_s
        return 0.0

    def to_jsonable(self, *, include_timing: bool = True) -> Dict[str, object]:
        """Plain-data rendering; timing is optional so campaign payloads
        stay byte-deterministic across serial and parallel runs."""
        document: Dict[str, object] = {
            "task": self.task,
            "k": self.k,
            "n": self.n,
            "algorithm": self.algorithm,
            "adversary": self.adversary,
            "verdict": self.verdict.value,
            "num_states": self.num_states,
            "num_transitions": self.num_transitions,
            "num_initial": self.num_initial,
            "paper_algorithm": self.paper_algorithm,
            "notes": list(self.notes),
            "witness": self.witness.as_jsonable() if self.witness else None,
        }
        if include_timing:
            document["elapsed_s"] = round(self.elapsed_s, 6)
            document["states_per_second"] = round(self.states_per_second, 1)
        return document
