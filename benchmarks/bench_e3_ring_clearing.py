"""Benchmark E3 — Ring Clearing perpetual searching + exploration (Theorem 6)."""

import pytest

from repro.algorithms.ring_clearing import RingClearingAlgorithm, ring_clearing_supported
from repro.campaign.spec import build_campaign
from repro.experiments import e3_ring_clearing
from repro.simulator.engine import Simulator
from repro.tasks import ExplorationMonitor, SearchingMonitor
from repro.workloads.generators import rigid_configurations


def _perpetual_run(n, k, steps_factor=25):
    configuration = rigid_configurations(n, k)[0]
    searching = SearchingMonitor()
    exploration = ExplorationMonitor()
    engine = Simulator(RingClearingAlgorithm(), configuration, monitors=[searching, exploration])
    engine.run(steps_factor * n * k)
    return searching, exploration, engine.trace


@pytest.mark.parametrize("n,k", [(11, 6), (12, 7), (14, 8)])
def test_ring_clearing_perpetual(benchmark, n, k):
    assert ring_clearing_supported(n, k)
    searching, exploration, trace = benchmark(_perpetual_run, n, k)
    assert not trace.had_collision
    assert searching.every_edge_cleared(2)
    assert exploration.all_robots_covered_ring(2)
    assert len(searching.all_clear_steps) >= 2


def test_ring_clearing_larger_ring(benchmark):
    n, k = 18, 9
    searching, exploration, trace = benchmark(_perpetual_run, n, k)
    assert searching.every_edge_cleared(1)
    assert exploration.all_robots_covered_ring(1)


def _quick_unit(n, k):
    """The E3 quick-campaign unit of cell ``(k, n)`` (worker input dict)."""
    units = build_campaign("e3", "quick").units
    return next(unit for unit in units if (unit.n, unit.k) == (n, k)).as_dict()


def test_ring_clearing_campaign_cell(benchmark):
    """One whole E3 cell: every start as a monitored batched lane."""
    unit = _quick_unit(13, 8)
    payload = benchmark(e3_ring_clearing.run_unit, unit)
    assert payload["passed"]


def _smoke_cell(n, k):
    assert e3_ring_clearing.run_unit(_quick_unit(n, k))["passed"]


def _smoke_perpetual(n, k):
    searching, exploration, trace = _perpetual_run(n, k)
    assert not trace.had_collision
    assert searching.every_edge_cleared(1)


def main():
    from _harness import emit

    emit(
        "e3",
        {
            "ring-clearing-n12-k7": lambda: _smoke_perpetual(12, 7),
            "ring-clearing-n14-k8": lambda: _smoke_perpetual(14, 8),
            "cell-n13-k8": lambda: _smoke_cell(13, 8),
        },
    )


if __name__ == "__main__":
    main()
