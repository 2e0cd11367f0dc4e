"""Declarative run specifications: *what* to run, as plain frozen data.

A :class:`RunSpec` captures one unit of work — a simulation, a
verification grid or a whole experiment — as an immutable,
JSON-serialisable value object.  Specs are the single currency of the
execution layer: the CLI builds them from argv, the HTTP service decodes
them from request bodies, tests construct them directly, and all of them
hand the spec to :func:`repro.runs.execute.execute`.  Because a spec
round-trips losslessly through :meth:`to_jsonable` /
:func:`spec_from_jsonable`, its canonical JSON form doubles as the
content-addressed result-cache key (see :mod:`repro.runs.cache`).

Algorithms and schedulers are referenced *by name* through the
registries below, never by object, so a spec built in one process (or
posted over HTTP) means exactly the same thing in another.  Specs
validate against those names alone; the classes behind them are
imported only when a run instantiates one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, Optional, Tuple, Type, Union

from ..experiments import EXPERIMENTS
from ..modelcheck.results import DEFAULT_MAX_STATES
from ..modelcheck.tasks import TASKS as VERIFY_TASKS
from ..simulator.options import EngineOptions

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.configuration import Configuration
    from ..model.algorithm import Algorithm
    from ..scheduler import Scheduler

__all__ = [
    "ALGORITHMS",
    "SCHEDULERS",
    "STOP_CONDITIONS",
    "BatchSweepSpec",
    "RunSpec",
    "SimulateSpec",
    "VerifySpec",
    "ExperimentSpec",
    "canonical_spec_json",
    "spec_from_jsonable",
    "make_algorithm",
    "make_scheduler",
]

#: Algorithm registry: spec-level names to the :mod:`repro.algorithms`
#: class each one instantiates.
ALGORITHMS: Dict[str, str] = {
    "align": "AlignAlgorithm",
    "ring-clearing": "RingClearingAlgorithm",
    "n-minus-three": "NminusThreeAlgorithm",
    "gathering": "GatheringAlgorithm",
    "idle": "IdleAlgorithm",
    "sweep": "SweepAlgorithm",
    "greedy-gather": "GreedyGatherBaseline",
}

#: Scheduler registry: spec-level names to the :mod:`repro.scheduler`
#: class each one instantiates.
SCHEDULERS: Dict[str, str] = {
    "sequential": "SequentialScheduler",
    "round_robin": "RoundRobinScheduler",
    "synchronous": "SynchronousScheduler",
    "semi_synchronous": "SemiSynchronousScheduler",
    "asynchronous": "AsynchronousScheduler",
}

#: The random schedulers: constructed with the run's seed.
_SEEDED_SCHEDULERS = ("semi_synchronous", "asynchronous")

#: Stop-condition registry: names to predicates over the configuration.
#: Each is invariant under ring rotation and reflection, so the engine
#: may share one verdict across a configuration's dihedral class.
STOP_CONDITIONS: Dict[str, Callable[["Configuration"], bool]] = {
    "c_star": lambda configuration: configuration.is_c_star(),
    "gathered": lambda configuration: configuration.num_occupied == 1,
}


def make_algorithm(name: str) -> Algorithm:
    """Instantiate a registered algorithm by its spec-level name."""
    from .. import algorithms

    return getattr(algorithms, ALGORITHMS[name])()


def make_scheduler(name: str, seed: Optional[int] = None) -> Scheduler:
    """Instantiate a registered scheduler, seeding it when it is random."""
    from .. import scheduler

    scheduler_class = getattr(scheduler, SCHEDULERS[name])
    return scheduler_class(seed=seed) if name in _SEEDED_SCHEDULERS else scheduler_class()


def _require_int(spec_kind: str, name: str, value: object) -> int:
    """Validate an integer spec field (bools and floats rejected).

    Specs arrive as JSON over HTTP; a float like ``12.0`` would pass
    range checks here only to crash deep inside the engine, and ``True``
    is an ``int`` subclass a client never means.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{spec_kind} field {name!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class RunSpec:
    """Base class of all run specifications (see module docstring)."""

    #: Discriminator stored in the JSON form and used for dispatch.
    kind: ClassVar[str] = "abstract"

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form: ``{"kind": ..., <fields>}``, JSON-safe values."""
        document: Dict[str, object] = {"kind": type(self).kind}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, EngineOptions):
                value = value.to_jsonable()
            elif isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            document[spec_field.name] = value
        return document


@dataclass(frozen=True)
class SimulateSpec(RunSpec):
    """One simulation run of one algorithm on one ring.

    Attributes:
        algorithm: registered algorithm name (see :data:`ALGORITHMS`).
        n: ring size.
        k: number of robots.
        steps: step budget.
        seed: seed of the random rigid starting configuration (when
            ``initial`` is ``None``) and of random schedulers.
        initial: explicit starting occupancy counts (length ``n``,
            summing to ``k``); ``None`` draws a random rigid start.
        scheduler: registered scheduler name (see :data:`SCHEDULERS`).
        stop: optional early-stop condition name (see
            :data:`STOP_CONDITIONS`), checked after every step.
        engine: the full engine option bundle.
    """

    kind: ClassVar[str] = "simulate"

    algorithm: str = "align"
    n: int = 12
    k: int = 5
    steps: int = 200
    seed: int = 0
    initial: Optional[Tuple[int, ...]] = None
    scheduler: str = "sequential"
    stop: Optional[str] = None
    engine: EngineOptions = field(default_factory=EngineOptions)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {sorted(ALGORITHMS)}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of {sorted(SCHEDULERS)}"
            )
        if self.stop is not None and self.stop not in STOP_CONDITIONS:
            raise ValueError(
                f"unknown stop condition {self.stop!r}; expected one of {sorted(STOP_CONDITIONS)}"
            )
        for name in ("n", "k", "steps", "seed"):
            _require_int("simulate", name, getattr(self, name))
        if self.n < 3 or not 1 <= self.k <= self.n:
            raise ValueError(f"need n >= 3 and 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.initial is not None:
            counts = tuple(
                _require_int("simulate", "initial[]", c) for c in self.initial
            )
            if len(counts) != self.n or sum(counts) != self.k or min(counts) < 0:
                raise ValueError(
                    f"initial counts must have length n={self.n} and sum k={self.k}"
                )
            object.__setattr__(self, "initial", counts)
        if not isinstance(self.engine, EngineOptions):
            raise TypeError("engine must be an EngineOptions instance")


@dataclass(frozen=True)
class BatchSweepSpec(RunSpec):
    """A seed sweep of one simulation setup, run as one batch.

    Semantically this is a list of :class:`SimulateSpec` runs sharing
    everything but the seed (see :meth:`member`); execution advances all
    of them together through :class:`repro.batchsim.BatchEngine`, whose
    traces are byte-identical to per-run traces — so each entry of the
    result's ``"runs"`` list equals the payload of executing the
    corresponding member spec on its own.

    Attributes:
        algorithm: registered algorithm name (see :data:`ALGORITHMS`).
        n: ring size.
        k: number of robots.
        steps: per-run step budget.
        seeds: one seed per run; each seeds that run's random rigid
            starting configuration and its scheduler (when random).
        scheduler: registered scheduler name, shared by every run.
        stop: optional early-stop condition name, shared by every run.
        engine: the engine option bundle, shared by every run.
    """

    kind: ClassVar[str] = "batch_sweep"

    algorithm: str = "align"
    n: int = 12
    k: int = 5
    steps: int = 200
    seeds: Tuple[int, ...] = (0,)
    scheduler: str = "sequential"
    stop: Optional[str] = None
    engine: EngineOptions = field(default_factory=EngineOptions)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {sorted(ALGORITHMS)}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of {sorted(SCHEDULERS)}"
            )
        if self.stop is not None and self.stop not in STOP_CONDITIONS:
            raise ValueError(
                f"unknown stop condition {self.stop!r}; expected one of {sorted(STOP_CONDITIONS)}"
            )
        for name in ("n", "k", "steps"):
            _require_int("batch_sweep", name, getattr(self, name))
        if self.n < 3 or not 1 <= self.k <= self.n:
            raise ValueError(f"need n >= 3 and 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        seeds = tuple(_require_int("batch_sweep", "seeds[]", s) for s in self.seeds)
        if not seeds:
            raise ValueError("seeds must be non-empty")
        object.__setattr__(self, "seeds", seeds)
        if not isinstance(self.engine, EngineOptions):
            raise TypeError("engine must be an EngineOptions instance")

    def member(self, seed: int) -> SimulateSpec:
        """The equivalent stand-alone spec of this sweep's ``seed`` run."""
        return SimulateSpec(
            algorithm=self.algorithm,
            n=self.n,
            k=self.k,
            steps=self.steps,
            seed=seed,
            scheduler=self.scheduler,
            stop=self.stop,
            engine=self.engine,
        )


@dataclass(frozen=True)
class VerifySpec(RunSpec):
    """One exhaustive model-checking grid: a task over ``(k, n)`` cells.

    Attributes:
        task: verification task name (see :data:`repro.modelcheck.TASKS`).
        cells: the ``(k, n)`` cells to check; every cell must satisfy
            ``1 <= k <= n`` and ``n >= 3``.
        adversary: adversary class (``"ssync"`` or ``"sequential"``).
        max_states: per-cell state-space cap.
    """

    kind: ClassVar[str] = "verify"

    task: str = "searching"
    cells: Tuple[Tuple[int, int], ...] = ()
    adversary: str = "ssync"
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self) -> None:
        if self.task not in VERIFY_TASKS:
            raise ValueError(
                f"unknown verification task {self.task!r}; expected one of {sorted(VERIFY_TASKS)}"
            )
        if self.adversary not in ("ssync", "sequential"):
            raise ValueError("adversary must be 'ssync' or 'sequential'")
        _require_int("verify", "max_states", self.max_states)
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")
        cells = tuple(
            (_require_int("verify", "cells[].k", k), _require_int("verify", "cells[].n", n))
            for k, n in self.cells
        )
        if not cells:
            raise ValueError("cells must be non-empty")
        for k, n in cells:
            if not (1 <= k <= n and n >= 3):
                raise ValueError(f"invalid cell (k={k}, n={n}): need 1 <= k <= n and n >= 3")
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class ExperimentSpec(RunSpec):
    """One reproduction experiment (``e1`` .. ``e8``) in one variant."""

    kind: ClassVar[str] = "experiment"

    name: str = "e1"
    variant: str = "quick"

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.name!r}; expected one of {sorted(EXPERIMENTS)}"
            )
        if self.variant not in ("quick", "full"):
            raise ValueError("variant must be 'quick' or 'full'")


#: Registry used by :func:`spec_from_jsonable`.
_SPEC_KINDS: Dict[str, Type[RunSpec]] = {
    SimulateSpec.kind: SimulateSpec,
    BatchSweepSpec.kind: BatchSweepSpec,
    VerifySpec.kind: VerifySpec,
    ExperimentSpec.kind: ExperimentSpec,
}


def spec_from_jsonable(document: Dict[str, object]) -> RunSpec:
    """Rebuild a spec from its :meth:`RunSpec.to_jsonable` form.

    Raises:
        ValueError: on a missing/unknown ``kind``, unknown fields, or
            field values that fail the spec's own validation.
    """
    if not isinstance(document, dict):
        raise ValueError("run spec document must be a JSON object")
    data = dict(document)
    kind = data.pop("kind", None)
    spec_cls = _SPEC_KINDS.get(kind)  # type: ignore[arg-type]
    if spec_cls is None:
        raise ValueError(
            f"unknown run spec kind {kind!r}; expected one of {sorted(_SPEC_KINDS)}"
        )
    known = {f.name for f in fields(spec_cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown field(s) for {kind!r} spec: {sorted(unknown)}")
    # Coercions and field validation can raise TypeError on structurally
    # wrong values (e.g. a cell that is not a pair, a string where an int
    # belongs); normalise everything to ValueError so transport layers
    # (the HTTP service) can treat "bad spec document" uniformly.
    try:
        if "engine" in data and isinstance(data["engine"], dict):
            data["engine"] = EngineOptions.from_jsonable(data["engine"])
        if "initial" in data and isinstance(data["initial"], list):
            data["initial"] = tuple(data["initial"])
        if "seeds" in data and isinstance(data["seeds"], list):
            data["seeds"] = tuple(data["seeds"])
        if "cells" in data and isinstance(data["cells"], list):
            data["cells"] = tuple(tuple(cell) for cell in data["cells"])
        return spec_cls(**data)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {kind!r} spec: {exc}") from exc


def canonical_spec_json(spec: Union[RunSpec, Dict[str, object]]) -> str:
    """The canonical JSON text of a spec (sorted keys, fixed separators).

    This string — not the Python object — is what gets hashed into the
    content-addressed cache key, so it must be stable across processes
    and Python versions.
    """
    document = spec.to_jsonable() if isinstance(spec, RunSpec) else spec
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
