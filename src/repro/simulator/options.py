"""Engine option bundle shared by every execution path.

The engine's model and tuning knobs (``exclusive``,
``multiplicity_detection``, ``presentation_seed``, ``collision_policy``,
``chirality``, ``decision_cache``, ``decision_cache_size``,
``config_pool_size``) travel as one frozen, JSON-serialisable
:class:`EngineOptions` value — the only way to pass them to
:class:`~repro.simulator.engine.Simulator`, the
:mod:`~repro.simulator.runner` helpers, the demo CLI and the experiment
modules.  Build it once, hand the same object to any layer, embed it
verbatim in a :class:`~repro.runs.spec.RunSpec`: its canonical JSON form
is part of the content-addressed result-cache key.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict

__all__ = ["EngineOptions", "DEFAULT_CONFIG_POOL_SIZE", "DEFAULT_DECISION_CACHE_SIZE"]

#: Default bound of an algorithm's decision cache
#: (:class:`~repro.model.algorithm.DecisionCache`); the engine, the
#: runners and the CLI all share this value.
DEFAULT_DECISION_CACHE_SIZE = 4096

#: Default bound of the engine's configuration pool.
DEFAULT_CONFIG_POOL_SIZE = 1024


@dataclass(frozen=True)
class EngineOptions:
    """The complete, immutable set of engine model/tuning knobs.

    Attributes:
        exclusive: enforce the exclusivity property (at most one robot
            per node).
        multiplicity_detection: grant robots local (weak) multiplicity
            detection.
        presentation_seed: seed of the adversary choosing the order in
            which the two directed views are presented to each robot
            (an integer: a run is a pure function of its options).
        collision_policy: ``"raise"`` (default) or ``"record"``.
        chirality: present the clockwise view first, granting a common
            sense of direction (stronger than min-CORDA; baselines only).
        decision_cache: memoise ``algorithm.compute`` per snapshot, and
            each whole Look per ``(counts, node, presentation order)``;
            disable to force one ``compute`` per Look.  Traces are
            identical either way.
        decision_cache_size: bound of the decision LRU and of the Look
            table (any positive bound yields identical traces).
        config_pool_size: bound of the configuration-pool LRU (any
            positive bound yields identical traces).
    """

    exclusive: bool = True
    multiplicity_detection: bool = False
    presentation_seed: int = 0
    collision_policy: str = "raise"
    chirality: bool = False
    decision_cache: bool = True
    decision_cache_size: int = DEFAULT_DECISION_CACHE_SIZE
    config_pool_size: int = DEFAULT_CONFIG_POOL_SIZE

    def __post_init__(self) -> None:
        # Strict type checks: option documents arrive over HTTP, where a
        # JSON string like "false" is truthy — silently accepting it
        # would run (and cache) the opposite of what the client asked.
        for name in ("exclusive", "multiplicity_detection", "chirality", "decision_cache"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        for name in ("decision_cache_size", "config_pool_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if self.decision_cache_size < 1:
            raise ValueError("decision_cache_size must be >= 1")
        if self.config_pool_size < 1:
            raise ValueError("config_pool_size must be >= 1")

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
