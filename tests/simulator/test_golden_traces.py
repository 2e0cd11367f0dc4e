"""Golden-trace regression tests.

One committed byte-exact trace per task (algorithm, scheduler, seed
cell).  Any change to the engine, the schedulers, the decision cache or
the algorithms that alters a single executed step shows up as a byte
diff against these files.  The same cells are replayed with the engine's
memo bounds forced to 1, asserting the memos are pure optimisations, and
through the naive reference stepper (``tests/reference_stepper.py``), which shares no stepping code
with the engine.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/simulator/test_golden_traces.py
"""

import os

import pytest

from repro.algorithms import (
    AlignAlgorithm,
    GatheringAlgorithm,
    NminusThreeAlgorithm,
    RingClearingAlgorithm,
)
from repro.scheduler.asynchronous import AsynchronousScheduler
from repro.scheduler.sequential import SequentialScheduler
from repro.scheduler.synchronous import SemiSynchronousScheduler
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.workloads.generators import iter_rigid_configurations
from reference_stepper import ReferenceStepper

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden")

#: One cell per task: name -> (factory of engine kwargs, steps).
CELLS = {
    "align-k4-n9-roundrobin-s1": dict(
        algorithm=AlignAlgorithm, k=4, n=9,
        scheduler=lambda: SequentialScheduler("round_robin"),
        seed=1, steps=60, gathering=False,
    ),
    "ring_clearing-k6-n11-ssync-s3": dict(
        algorithm=RingClearingAlgorithm, k=6, n=11,
        scheduler=lambda: SemiSynchronousScheduler(seed=3),
        seed=3, steps=120, gathering=False,
    ),
    "nminusthree-k7-n10-random-s5": dict(
        algorithm=NminusThreeAlgorithm, k=7, n=10,
        scheduler=lambda: SequentialScheduler("random", seed=5),
        seed=5, steps=100, gathering=False,
    ),
    "gathering-k4-n9-async-s7": dict(
        algorithm=GatheringAlgorithm, k=4, n=9,
        scheduler=lambda: AsynchronousScheduler(seed=7),
        seed=7, steps=400, gathering=True,
    ),
}


def run_cell(name, runner=Simulator, **engine_overrides):
    """Execute one golden cell and return its canonical trace bytes."""
    cell = CELLS[name]
    configuration = next(iter_rigid_configurations(cell["n"], cell["k"]))
    engine = runner(
        cell["algorithm"](),
        configuration,
        scheduler=cell["scheduler"](),
        options=EngineOptions(
            presentation_seed=cell["seed"],
            exclusive=not cell["gathering"],
            multiplicity_detection=cell["gathering"],
            **engine_overrides,
        ),
    )
    engine.run(cell["steps"])
    return engine.trace.canonical_bytes()


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"trace_{name}.json")


@pytest.mark.parametrize("name", sorted(CELLS))
class TestGoldenTraces:
    def test_matches_committed_bytes(self, name):
        with open(golden_path(name), "rb") as handle:
            expected = handle.read()
        assert run_cell(name) == expected

    def test_memo_bounds_of_one_are_byte_identical(self, name, memo_bounds_of_one):
        """A configuration pool, decision cache and Look table bounded at
        1 only change hit rates, never the executed steps."""
        with open(golden_path(name), "rb") as handle:
            expected = handle.read()
        assert run_cell(name) == expected

    def test_reference_stepper_matches_committed_bytes(self, name):
        with open(golden_path(name), "rb") as handle:
            expected = handle.read()
        assert run_cell(name, runner=ReferenceStepper) == expected


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(CELLS):
        payload = run_cell(name)
        with open(golden_path(name), "wb") as handle:
            handle.write(payload)
        print(f"wrote {golden_path(name)} ({len(payload)} bytes)")


if __name__ == "__main__":
    main()
