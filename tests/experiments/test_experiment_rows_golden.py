"""Golden rows of the simulation-heavy experiments (E3, E4, E5, E7).

Every quick-variant campaign unit of these experiments is recomputed
through its ``run_unit`` worker and compared exactly with
``tests/golden/experiment_rows_quick.json``.  The rows are what
``repro all`` prints and writes to ``summary.json``, so any change to
the simulators, the task monitors or the experiment workers that moves
a single number shows up here.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/experiments/test_experiment_rows_golden.py
"""

import json
import os

import pytest

from repro.algorithms.baselines import GreedyGatherBaseline
from repro.algorithms.gathering import gathering_supported
from repro.batchsim import BatchEngine
from repro.campaign.spec import build_campaign
from repro.experiments import (
    e3_ring_clearing,
    e4_nminusthree,
    e5_gathering,
    e7_scaling,
)
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden",
    "experiment_rows_quick.json",
)

WORKERS = {
    "e3": e3_ring_clearing.run_unit,
    "e4": e4_nminusthree.run_unit,
    "e5": e5_gathering.run_unit,
    "e7": e7_scaling.run_unit,
}


def quick_units(experiment):
    return [unit.as_dict() for unit in build_campaign(experiment, "quick").units]


def as_json(payload):
    """The payload as it is stored: a JSON round trip (floats are exact)."""
    return json.loads(json.dumps(payload))


def compute_rows(experiment):
    return {
        unit["unit_id"]: as_json(WORKERS[experiment](unit))
        for unit in quick_units(experiment)
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("experiment", sorted(WORKERS))
def test_run_unit_rows_match_golden(experiment, golden):
    assert compute_rows(experiment) == golden[experiment]


def _per_run_baseline_finals(starts, budget):
    """Reference: one incremental ``Simulator`` per start."""
    finals = []
    for configuration in starts:
        engine = Simulator(
            GreedyGatherBaseline(),
            configuration,
            options=EngineOptions(exclusive=False, multiplicity_detection=True, presentation_seed=1),
        )
        engine.run(budget)
        finals.append((engine.configuration.counts, engine.trace.total_moves))
    return finals


@pytest.mark.parametrize(
    "unit",
    [
        unit
        for unit in quick_units("e5")
        if unit["n"] <= 10 and gathering_supported(unit["n"], unit["k"])
    ],
    ids=lambda unit: unit["unit_id"],
)
def test_e5_batched_baseline_matches_per_run_loop(unit):
    k, n = unit["k"], unit["n"]
    starts = e5_gathering._starting_configurations(n, k, unit["samples"], unit["seed"])
    budget = 30 * n * k + 200
    finals = _per_run_baseline_finals(starts, budget)
    expected = sum(1 for counts, _ in finals if sum(1 for c in counts if c) == 1)
    assert e5_gathering._baseline_gathered(starts, budget) == expected
    # The count is coarse; the lanes' end states pin the engine model and
    # the presentation seeds too.
    engine = BatchEngine(
        GreedyGatherBaseline(),
        starts,
        options=e5_gathering._BASELINE_OPTIONS,
        record_events=False,
    )
    engine.run(budget)
    lanes = [engine.lane(i) for i in range(engine.num_lanes)]
    assert [(lane.counts_tuple, lane.total_moves) for lane in lanes] == finals


def main():
    rows = {experiment: compute_rows(experiment) for experiment in sorted(WORKERS)}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
