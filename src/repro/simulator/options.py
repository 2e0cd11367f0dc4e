"""The robot model a simulation runs under, shared by every execution path.

The model's assumptions (``exclusive``, ``multiplicity_detection``,
``presentation_seed``, ``collision_policy``, ``chirality``) travel as
one frozen, JSON-serialisable :class:`EngineOptions` value — the only
way to pass them to :class:`~repro.simulator.engine.Simulator`, the
:mod:`~repro.simulator.runner` helpers, the demo CLI and the experiment
modules.  Build it once, hand the same object to any layer, embed it
verbatim in a :class:`~repro.runs.spec.RunSpec`: its canonical JSON form
is part of the content-addressed result-cache key.  So every field
changes what a run computes; the engine's memo bounds are the module
constants below, not options.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict

__all__ = ["EngineOptions", "DEFAULT_CONFIG_POOL_SIZE", "DEFAULT_DECISION_CACHE_SIZE"]

#: Bound of an algorithm's decision cache
#: (:class:`~repro.model.algorithm.DecisionCache`) and of the engine's
#: Look table.
DEFAULT_DECISION_CACHE_SIZE = 4096

#: Smallest bound of the engine's configuration pool.
DEFAULT_CONFIG_POOL_SIZE = 1024


@dataclass(frozen=True)
class EngineOptions:
    """The complete, immutable robot model of one simulation.

    Attributes:
        exclusive: enforce the exclusivity property (at most one robot
            per node).
        multiplicity_detection: grant robots local (weak) multiplicity
            detection.
        presentation_seed: seed of the adversary choosing the order in
            which the two directed views are presented to each robot
            (an integer: a run is a pure function of its options);
            stored as ``0`` under ``chirality``, which fixes the order.
        collision_policy: ``"raise"`` (default) or ``"record"``.
        chirality: present the clockwise view first, granting a common
            sense of direction (stronger than min-CORDA; baselines only).
    """

    exclusive: bool = True
    multiplicity_detection: bool = False
    presentation_seed: int = 0
    collision_policy: str = "raise"
    chirality: bool = False

    def __post_init__(self) -> None:
        # Strict type checks: option documents arrive over HTTP, where a
        # JSON string like "false" is truthy — silently accepting it
        # would run (and cache) the opposite of what the client asked.
        for name in ("exclusive", "multiplicity_detection", "chirality"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        # No ``None``: ``random.Random(None)`` seeds from the OS, so one
        # content-addressed run id would name a different trace per run.
        if not isinstance(self.presentation_seed, int) or isinstance(
            self.presentation_seed, bool
        ):
            raise ValueError(
                f"presentation_seed must be an integer, got {self.presentation_seed!r}"
            )
        if self.collision_policy not in ("raise", "record"):
            raise ValueError("collision_policy must be 'raise' or 'record'")
        if self.chirality:
            object.__setattr__(self, "presentation_seed", 0)

    def with_overrides(self, **overrides: object) -> "EngineOptions":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-dict form, stable field order, JSON-safe values."""
        return asdict(self)

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "EngineOptions":
        """Rebuild from :meth:`to_jsonable` output (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown EngineOptions field(s): {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]
