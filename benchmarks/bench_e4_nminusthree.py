"""Benchmark E4 — Algorithm NminusThree for k = n - 3 (Theorem 7, Lemma 9)."""

import pytest

from repro.algorithms.classification import three_empty_structure
from repro.algorithms.nminusthree import (
    NminusThreeAlgorithm,
    final_configurations,
    nminusthree_supported,
)
from repro.campaign.spec import build_campaign
from repro.experiments import e4_nminusthree
from repro.simulator.engine import Simulator
from repro.tasks import ExplorationMonitor, SearchingMonitor
from repro.workloads.generators import rigid_configurations


def _perpetual_run(n, steps_factor=30):
    k = n - 3
    configuration = rigid_configurations(n, k)[0]
    searching = SearchingMonitor()
    exploration = ExplorationMonitor()
    engine = Simulator(NminusThreeAlgorithm(), configuration, monitors=[searching, exploration])
    engine.run(steps_factor * n * k)
    return searching, exploration, engine.trace


@pytest.mark.parametrize("n", [10, 12, 14])
def test_nminusthree_perpetual(benchmark, n):
    assert nminusthree_supported(n, n - 3)
    searching, exploration, trace = benchmark(_perpetual_run, n)
    assert not trace.had_collision
    assert searching.every_edge_cleared(2)
    assert exploration.all_robots_covered_ring(2)


def test_nminusthree_phase1_convergence(benchmark):
    """Lemma 9: phase 1 reaches a final configuration from every rigid start."""
    n = 13
    k = n - 3
    starts = rigid_configurations(n, k)
    finals = set(final_configurations(k))

    def phase_one():
        reached = 0
        for configuration in starts:
            engine = Simulator(NminusThreeAlgorithm(), configuration)
            engine.run_until(
                lambda sim: three_empty_structure(sim.configuration).sorted_sizes in finals,
                10 * n * k,
            )
            reached += 1
        return reached

    reached = benchmark(phase_one)
    assert reached == len(starts)


def _quick_unit(n):
    """The E4 quick-campaign unit of ring size ``n`` (worker input dict)."""
    units = build_campaign("e4", "quick").units
    return next(unit for unit in units if unit.n == n).as_dict()


def test_nminusthree_campaign_cell(benchmark):
    """One whole E4 cell: every start, monitored, plus the phase-1 scan."""
    unit = _quick_unit(13)
    payload = benchmark(e4_nminusthree.run_unit, unit)
    assert payload["passed"]


def _smoke_cell(n):
    assert e4_nminusthree.run_unit(_quick_unit(n))["passed"]


def _smoke_perpetual(n):
    searching, exploration, trace = _perpetual_run(n)
    assert not trace.had_collision
    assert searching.every_edge_cleared(1)


def main():
    from _harness import emit

    emit(
        "e4",
        {
            "nminusthree-n10": lambda: _smoke_perpetual(10),
            "nminusthree-n12": lambda: _smoke_perpetual(12),
            "cell-n13-k10": lambda: _smoke_cell(13),
        },
    )


if __name__ == "__main__":
    main()
