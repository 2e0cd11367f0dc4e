"""Values the experiment monitors carry instead of reading traces back.

:attr:`SearchingMonitor.moves_to_first_all_clear` and E4's phase-1
monitor replace two scans over recorded traces; each is checked here
against that scan, kept as the oracle, on :class:`Simulator` runs that
record their events.
"""

import pytest

from repro.algorithms import IdleAlgorithm, NminusThreeAlgorithm, RingClearingAlgorithm
from repro.algorithms.classification import three_empty_structure
from repro.algorithms.nminusthree import final_configurations
from repro.batchsim import BatchEngine
from repro.core.configuration import Configuration
from repro.experiments.e4_nminusthree import _FinalReached
from repro.simulator.engine import Simulator
from repro.tasks import SearchingMonitor
from repro.workloads.generators import rigid_configurations

#: (algorithm, n, k) cells, three starts each.
CELLS = [
    (RingClearingAlgorithm, 10, 6),
    (RingClearingAlgorithm, 11, 5),
    (RingClearingAlgorithm, 12, 7),
    (NminusThreeAlgorithm, 10, 7),
    (NminusThreeAlgorithm, 11, 8),
]


def _trace_scan(trace, all_clear_steps):
    """Moves up to and including the first all-clear step (the old scan)."""
    if not all_clear_steps:
        return None
    return sum(len(e.moves) for e in trace.events if e.step <= all_clear_steps[0])


@pytest.mark.parametrize(
    "algorithm_factory,n,k", CELLS, ids=[f"{a.__name__}-n{n}-k{k}" for a, n, k in CELLS]
)
def test_moves_to_first_all_clear_matches_trace_scan(algorithm_factory, n, k):
    reached = 0
    for configuration in rigid_configurations(n, k)[:3]:
        searching = SearchingMonitor()
        engine = Simulator(algorithm_factory(), configuration, monitors=[searching])
        engine.run(12 * n * k)
        expected = _trace_scan(engine.trace, searching.all_clear_steps)
        assert searching.moves_to_first_all_clear == expected
        reached += expected is not None
    assert reached, "no start reached an all-clear ring; the check is vacuous"


def test_all_clear_start_counts_zero_moves():
    """A start already all-clear records 0 at step -1.

    No rigid start of Ring Clearing or NminusThree is one (the edges at
    an empty node start contaminated), so a full ring stands in.
    """
    full = Configuration.from_occupied(6, range(6))
    searching = SearchingMonitor()
    Simulator(IdleAlgorithm(), full, monitors=[searching]).run(5)
    assert searching.all_clear_steps[0] == -1
    assert searching.moves_to_first_all_clear == 0

    lane_monitor = SearchingMonitor()
    engine = BatchEngine(
        IdleAlgorithm(), [full], monitors_factory=lambda i: [lane_monitor]
    )
    engine.run(5)
    assert lane_monitor.moves_to_first_all_clear == 0


def test_never_all_clear_is_none():
    searching = SearchingMonitor()
    start = rigid_configurations(10, 6)[0]
    Simulator(IdleAlgorithm(), start, monitors=[searching]).run(5)
    assert searching.all_clear_steps == []
    assert searching.moves_to_first_all_clear is None


@pytest.mark.parametrize("n", [10, 11, 12])
def test_e4_final_monitor_matches_trace_scan(n):
    k = n - 3
    finals = set(final_configurations(k))
    for configuration in rigid_configurations(n, k)[:6]:
        final = _FinalReached(finals)
        engine = Simulator(NminusThreeAlgorithm(), configuration, monitors=[final])
        engine.run(2 * n * k)
        expected = any(
            three_empty_structure(c).sorted_sizes in finals
            for c in engine.trace.configurations()
        )
        assert final.reached == expected
