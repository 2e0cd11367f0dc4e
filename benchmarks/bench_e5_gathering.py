"""Benchmark E5 — Gathering with local multiplicity detection (Theorem 8)."""

import random

import pytest

from repro.algorithms.gathering import GatheringAlgorithm
from repro.campaign.spec import build_campaign
from repro.experiments import e5_gathering
from repro.simulator.runner import run_gathering
from repro.workloads.generators import random_rigid_configuration, rigid_configurations


@pytest.mark.parametrize("n,k", [(10, 5), (12, 6), (12, 9)])
def test_gathering_exhaustive_starts(benchmark, n, k):
    starts = rigid_configurations(n, k)[:15]

    def gather_all():
        gathered = 0
        for configuration in starts:
            trace, _ = run_gathering(GatheringAlgorithm(), configuration)
            if trace.final_configuration.num_occupied == 1:
                gathered += 1
        return gathered

    gathered = benchmark(gather_all)
    assert gathered == len(starts)


@pytest.mark.parametrize("n,k", [(24, 8), (32, 10), (40, 12)])
def test_gathering_scaling(benchmark, n, k):
    rng = random.Random(7)
    configuration = random_rigid_configuration(n, k, rng)

    def gather():
        trace, _ = run_gathering(GatheringAlgorithm(), configuration, max_steps=80 * n * k)
        return trace

    trace = benchmark(gather)
    assert trace.final_configuration.num_occupied == 1
    assert trace.total_moves <= 3 * n * k


def _quick_unit(n, k):
    """The E5 quick-campaign unit of cell ``(k, n)`` (worker input dict)."""
    units = build_campaign("e5", "quick").units
    return next(unit for unit in units if (unit.n, unit.k) == (n, k)).as_dict()


def test_gathering_campaign_cell(benchmark):
    """One whole E5 cell: the paper's algorithm and the greedy baseline."""
    unit = _quick_unit(11, 6)
    payload = benchmark(e5_gathering.run_unit, unit)
    assert payload["passed"]


def _smoke_cell(n, k):
    assert e5_gathering.run_unit(_quick_unit(n, k))["passed"]


def _smoke_exhaustive(n, k):
    for configuration in rigid_configurations(n, k)[:15]:
        trace, _ = run_gathering(GatheringAlgorithm(), configuration)
        assert trace.final_configuration.num_occupied == 1


def _smoke_scaling(n, k):
    configuration = random_rigid_configuration(n, k, random.Random(7))
    trace, _ = run_gathering(GatheringAlgorithm(), configuration, max_steps=80 * n * k)
    assert trace.final_configuration.num_occupied == 1


def main():
    from _harness import emit

    emit(
        "e5",
        {
            "gathering-exhaustive-n10-k5": lambda: _smoke_exhaustive(10, 5),
            "gathering-scaling-n24-k8": lambda: _smoke_scaling(24, 8),
            "cell-n11-k6": lambda: _smoke_cell(11, 6),
        },
    )


if __name__ == "__main__":
    main()
