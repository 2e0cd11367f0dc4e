"""Batched vectorized simulation: one engine advancing many runs at once.

A Monte-Carlo campaign cell runs the *same* algorithm under the *same*
scheduler policy on hundreds of seeded starting configurations.  Run one
:class:`~repro.simulator.engine.Simulator` per sample and most of the
work is Python-object overhead: snapshot construction, per-step trace
objects, cold decision caches.  :class:`BatchEngine` instead advances a
``(batch, n)`` occupancy matrix (one stdlib ``array`` row per lane)
through Look-Compute-Move rounds, sharing one class-plan table
(:class:`~repro.simulator.classplan.ClassPlanTable`), one Look table,
one decision cache and one configuration pool across every lane.  Each
lane draws its presentation RNG exactly as the per-run engine does:
once per Look, plan steps and fast-forwarded steps included, never
under chirality.

Correctness contract: a lane's trace is **byte-identical** to the trace
of the incremental engine run with the same algorithm, initial
configuration, scheduler and options
(``BatchEngine.lane_trace(i).canonical_bytes() ==
Simulator(...).run(...).canonical_bytes()``).  The differential test
suite (``tests/batchsim/``) certifies this on sampled seeds under every
scheduler; the campaign executor relies on it to
keep batched ``summary.json`` files byte-identical to per-run execution.

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
