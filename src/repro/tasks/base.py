"""Monitor protocol.

Monitors are passive observers attached to a
:class:`~repro.simulator.engine.Simulator`.  They receive callbacks as
the simulation unfolds and accumulate task-level state (which edges are
clear, which nodes each robot has visited, whether the robots have
gathered).  Monitors never influence the execution — the robots are
oblivious and cannot access any of this information.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from ..core.configuration import Configuration
from ..simulator.trace import MoveRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import Simulator

__all__ = ["Monitor", "CompositeMonitor"]


class Monitor:
    """Base class for task monitors (default callbacks do nothing).

    A monitor may also let a batched round-robin lane skip whole periods
    of a periodic orbit (see :meth:`~repro.batchsim.BatchEngine.run`)
    by defining two more methods; the base class defines neither, so a
    monitor that does not is shown every step:

    * ``orbit_key(base) -> hashable`` — the monitor state that can still
      change its future records, in the frame of robot 0 standing on
      node ``base``; two equal keys mean the monitor goes on recording
      the same, rotated;
    * ``orbit_skip(engine, start, period, full, shift, moves)`` — append
      ``full`` copies of the records of steps ``start`` to
      ``start + period - 1``: copy ``j`` (from 1) of step ``s`` is step
      ``s + j * period`` with every node rotated by ``j * shift``.  Each
      period executes ``moves`` moves, and ``engine`` already shows the
      lane at the end of the skip.
    """

    def on_start(self, engine: "Simulator") -> None:
        """Called once before the first step."""

    def on_step(
        self,
        engine: "Simulator",
        moves: Sequence[MoveRecord],
        configuration: Configuration,
    ) -> None:
        """Called after every scheduler step.

        Args:
            engine: the running simulator.
            moves: moves executed during the step (possibly empty).
            configuration: configuration at the end of the step.
        """


class CompositeMonitor(Monitor):
    """Fan-out monitor delegating every callback to its children."""

    def __init__(self, monitors: Sequence[Monitor]) -> None:
        self._monitors: List[Monitor] = list(monitors)

    @property
    def monitors(self) -> List[Monitor]:
        """The wrapped monitors."""
        return list(self._monitors)

    def on_start(self, engine: "Simulator") -> None:
        """Forward the start event to every wrapped monitor, in order."""
        for monitor in self._monitors:
            monitor.on_start(engine)

    def on_step(
        self,
        engine: "Simulator",
        moves: Sequence[MoveRecord],
        configuration: Configuration,
    ) -> None:
        """Forward the step event to every wrapped monitor, in order."""
        for monitor in self._monitors:
            monitor.on_step(engine, moves, configuration)
