"""High-level simulation helpers used by examples, experiments and tests.

All three helpers take their engine knobs as one
:class:`~repro.simulator.options.EngineOptions` bundle (``options=``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from ..core.configuration import Configuration
from ..model.algorithm import Algorithm
from ..scheduler.base import Scheduler
from ..tasks.base import Monitor
from .engine import Simulator
from .options import EngineOptions
from .trace import Trace

__all__ = ["simulate", "run_to_configuration", "run_gathering", "default_step_budget"]


def default_step_budget(n: int, k: int, factor: int = 12, floor: int = 200) -> int:
    """A generous step budget for convergence runs.

    The paper's constructive algorithms all converge within ``O(n * k)``
    moves; the budget multiplies that by ``factor`` to leave room for the
    scheduler interleaving idle activations between useful ones.
    """
    return max(floor, factor * n * max(k, 1))


def simulate(
    algorithm: Algorithm,
    initial: Union[Configuration, Sequence[int]],
    *,
    ring_size: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    steps: int = 1000,
    monitors: Iterable[Monitor] = (),
    options: Optional[EngineOptions] = None,
    stop=None,
) -> Tuple[Trace, Simulator]:
    """Build a simulator, run it for ``steps`` steps and return trace + engine."""
    engine = Simulator(
        algorithm,
        initial,
        ring_size=ring_size,
        scheduler=scheduler,
        monitors=monitors,
        options=options,
    )
    trace = engine.run(steps, stop=stop)
    return trace, engine


def run_to_configuration(
    algorithm: Algorithm,
    initial: Configuration,
    goal,
    *,
    scheduler: Optional[Scheduler] = None,
    max_steps: Optional[int] = None,
    monitors: Iterable[Monitor] = (),
    options: Optional[EngineOptions] = None,
) -> Tuple[Trace, Simulator]:
    """Run until the configuration satisfies ``goal`` (a predicate).

    Raises:
        SimulationLimitError: if the goal is not reached within the
            (automatically sized) step budget.
    """
    budget = max_steps if max_steps is not None else default_step_budget(initial.n, initial.k)
    engine = Simulator(
        algorithm,
        initial,
        scheduler=scheduler,
        monitors=monitors,
        options=options,
    )
    trace = engine.run_until(lambda sim: goal(sim.configuration), budget)
    return trace, engine


def run_gathering(
    algorithm: Algorithm,
    initial: Configuration,
    *,
    scheduler: Optional[Scheduler] = None,
    max_steps: Optional[int] = None,
    monitors: Iterable[Monitor] = (),
    options: Optional[EngineOptions] = None,
) -> Tuple[Trace, Simulator]:
    """Run a gathering algorithm until all robots share one node.

    Convenience wrapper switching off exclusivity and switching on local
    multiplicity detection, as required by the gathering task; the other
    fields of ``options`` apply unchanged.
    """
    resolved = (options if options is not None else EngineOptions()).with_overrides(
        exclusive=False, multiplicity_detection=True
    )
    budget = max_steps if max_steps is not None else default_step_budget(initial.n, initial.k)
    engine = Simulator(
        algorithm,
        initial,
        scheduler=scheduler,
        monitors=monitors,
        options=resolved,
    )
    trace = engine.run_until(lambda sim: sim.configuration.num_occupied == 1, budget)
    return trace, engine
