"""Batched simulation: the one engine, advancing many runs at once.

A Monte-Carlo campaign cell runs the *same* algorithm under the *same*
scheduler policy on hundreds of seeded starting configurations.  Run
them one at a time and most of the work is Python-object overhead:
snapshot construction, per-step trace objects, cold decision caches.
:class:`BatchEngine` instead advances a ``(batch, n)`` occupancy matrix
(one stdlib ``array`` row per lane) through Look-Compute-Move rounds,
sharing one Look table, one decision cache and one configuration pool
across every lane, and the process-wide class-plan table
(:class:`~repro.simulator.classplan.ClassPlanTable`) with every other
engine.  A single run is a one-lane batch:
:class:`~repro.simulator.engine.Simulator` is a facade over one.  Each lane draws
its presentation RNG once per Look, plan steps and fast-forwarded steps
included, never under chirality.

Correctness contract: a lane's trace is **byte-identical** to the trace
of the naive reference stepper (``tests/reference_stepper.py``, which
shares no engine code) run with the same algorithm, initial
configuration, scheduler and options.  The differential test suite
(``tests/batchsim/``) certifies this on sampled seeds under every
scheduler, and the golden-trace tests pin both to committed bytes; the
campaign executor relies on it to keep ``summary.json`` files
independent of how many lanes a unit runs.

Typical use::

    from repro.batchsim import BatchEngine

    engine = BatchEngine(AlignAlgorithm(), initial_configurations)
    engine.run_until_configuration(lambda c: c.is_c_star(), max_steps=2000)
    moves = [engine.lane(i).total_moves for i in range(engine.num_lanes)]
"""

from .backends import resolve_backend
from .engine import BatchEngine, BatchLane

__all__ = [
    "BatchEngine",
    "BatchLane",
    "resolve_backend",
]
