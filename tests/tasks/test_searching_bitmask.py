"""The bitmask :class:`SearchingMonitor` against a set-based reference.

:class:`ReferenceSearchingMonitor` below records the clearing history
the straightforward way: one :class:`SearchState` (built on
:func:`advance_clear_edges`, sharing no code with
:class:`RingSearchDynamics`) and one appended step per clear edge per
step.  Both monitors run side by side on the same simulation, under the
incremental :class:`Simulator` and as monitored :class:`BatchEngine`
lanes, and every query is compared after every step.
"""

import pytest

from repro.algorithms import (
    NminusThreeAlgorithm,
    RingClearingAlgorithm,
    SweepAlgorithm,
)
from repro.algorithms.baselines import GreedyGatherBaseline
from repro.batchsim import BatchEngine
from repro.core.configuration import Configuration
from repro.core.ring import Ring
from repro.scheduler import SemiSynchronousScheduler, SequentialScheduler
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.simulator.trace import MoveRecord
from repro.tasks.base import Monitor
from repro.tasks.searching import RingSearchDynamics, SearchingMonitor, SearchState
from repro.workloads.generators import rigid_configurations


class ReferenceSearchingMonitor(Monitor):
    """Set-based clearing history: one list append per clear edge per step."""

    def on_start(self, engine):
        ring = Ring(engine.ring_size)
        self.state = SearchState(ring, engine.configuration)
        self.clear_history = {e: [] for e in ring.edges()}
        self.all_clear_steps = []
        self._record(-1)

    def on_step(self, engine, moves, configuration):
        self.state.apply_moves(moves, configuration)
        self._record(engine.step_count - 1)

    def _record(self, step):
        for e in self.state.clear_edges:
            self.clear_history[e].append(step)
        if self.state.all_clear:
            self.all_clear_steps.append(step)

    def clearing_counts(self):
        return {e: len(steps) for e, steps in self.clear_history.items()}

    def last_clear_step(self):
        return {e: (steps[-1] if steps else -2) for e, steps in self.clear_history.items()}

    def edges_never_cleared(self):
        return tuple(e for e, steps in self.clear_history.items() if not steps)


class EquivalenceCheck(Monitor):
    """Compares the two monitors after each step (registered after both)."""

    def __init__(self, monitor, reference):
        self.monitor = monitor
        self.reference = reference
        self.checked_steps = 0

    def _compare(self):
        monitor, reference = self.monitor, self.reference
        assert monitor.state.clear_edges == reference.state.clear_edges
        assert monitor.state.contaminated_edges == reference.state.contaminated_edges
        assert monitor.state.all_clear == reference.state.all_clear
        assert monitor.all_clear_steps == reference.all_clear_steps
        history = monitor.clear_history
        assert history == reference.clear_history
        assert list(history) == list(reference.clear_history)
        assert monitor.clearing_counts() == reference.clearing_counts()
        assert monitor.last_clear_step() == reference.last_clear_step()
        assert monitor.edges_never_cleared() == reference.edges_never_cleared()
        for minimum in (0, 1, 2, 5):
            assert monitor.every_edge_cleared(minimum) == all(
                len(steps) >= minimum for steps in reference.clear_history.values()
            )
        for u, v in monitor.state.ring.edges():
            assert monitor.state.is_clear(v, u) == reference.state.is_clear(u, v)
        self.checked_steps += 1

    def on_start(self, engine):
        self._compare()

    def on_step(self, engine, moves, configuration):
        self._compare()


def _first_rigid(n, k):
    return rigid_configurations(n, k)[0]


#: name -> (algorithm factory, initial configuration, options, scheduler factory, steps)
CASES = {
    **{
        f"ring-clearing-k{k}-n{n}": (
            RingClearingAlgorithm, _first_rigid(n, k), EngineOptions(), None, 4 * n * k
        )
        for k, n in ((6, 10), (5, 11), (7, 12), (8, 13), (9, 14))
    },
    **{
        f"nminusthree-k{n - 3}-n{n}": (
            NminusThreeAlgorithm, _first_rigid(n, n - 3), EngineOptions(), None, 4 * n * (n - 3)
        )
        for n in (10, 11, 12, 13)
    },
    "sweep-chirality-n8": (
        SweepAlgorithm,
        Configuration.from_occupied(8, [0, 1, 2]),
        EngineOptions(chirality=True),
        None,
        80,
    ),
    "greedy-towers-n9": (
        GreedyGatherBaseline,
        Configuration([2, 0, 1, 0, 0, 1, 0, 1, 0]),
        EngineOptions(exclusive=False, multiplicity_detection=True, presentation_seed=1),
        None,
        150,
    ),
    "greedy-ssync-n10": (
        GreedyGatherBaseline,
        _first_rigid(10, 4),
        EngineOptions(exclusive=False, multiplicity_detection=True, presentation_seed=3),
        lambda: SemiSynchronousScheduler(seed=2),
        150,
    ),
}


def _monitors():
    monitor = SearchingMonitor()
    reference = ReferenceSearchingMonitor()
    return monitor, reference, EquivalenceCheck(monitor, reference)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulator_run_matches_reference(name):
    algorithm, configuration, options, scheduler, steps = CASES[name]
    monitor, reference, check = _monitors()
    engine = Simulator(
        algorithm(),
        configuration,
        options=options,
        scheduler=scheduler() if scheduler else SequentialScheduler(),
        monitors=[monitor, reference, check],
    )
    engine.run(steps)
    assert check.checked_steps == steps + 1
    assert monitor.clear_history == reference.clear_history


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_lanes_match_reference(name):
    algorithm, configuration, options, scheduler, steps = CASES[name]
    lanes = {}

    def monitors_factory(index):
        lanes[index] = _monitors()
        return list(lanes[index])

    # Two lanes from different starts (a rotation of the first), so the
    # monitors share the process-wide dynamics but not their histories.
    rotated = Configuration(configuration.counts[1:] + configuration.counts[:1])
    engine = BatchEngine(
        algorithm(),
        [configuration, rotated],
        options=options,
        scheduler_factory=(lambda index: scheduler()) if scheduler else None,
        monitors_factory=monitors_factory,
    )
    engine.run(steps)
    for monitor, reference, check in lanes.values():
        assert check.checked_steps == steps + 1
        assert monitor.all_clear_steps == reference.all_clear_steps


def test_bitmask_monitor_is_the_per_run_monitor_on_a_lane():
    algorithm, configuration, options, _, steps = CASES["nminusthree-k9-n12"]
    per_run = SearchingMonitor()
    Simulator(algorithm(), configuration, options=options, monitors=[per_run]).run(steps)
    batched = SearchingMonitor()
    BatchEngine(
        algorithm(), [configuration], options=options, monitors_factory=lambda i: [batched]
    ).run(steps)
    assert batched.clear_history == per_run.clear_history
    assert batched.all_clear_steps == per_run.all_clear_steps


def test_non_adjacent_move_raises_the_ring_error():
    configuration = Configuration.from_occupied(8, [0, 1, 2])
    monitor = SearchingMonitor()
    engine = Simulator(
        SweepAlgorithm(), configuration, monitors=[monitor], options=EngineOptions(chirality=True)
    )
    with pytest.raises(ValueError) as expected:
        Ring(8).edge_between(0, 3)
    after = Configuration.from_occupied(8, [1, 2, 3])
    with pytest.raises(ValueError) as raised:
        monitor.on_step(engine, [MoveRecord(robot_id=0, source=0, target=3)], after)
    assert str(raised.value) == str(expected.value)
    # The failed step changed nothing.
    assert monitor.clearing_counts() == {e: (1 if e in ((0, 1), (1, 2)) else 0) for e in Ring(8).edges()}


def test_queries_before_start():
    monitor = SearchingMonitor()
    with pytest.raises(RuntimeError):
        monitor.state
    assert monitor.clear_history == {}
    assert monitor.clearing_counts() == {}
    assert monitor.edges_never_cleared() == ()
    assert monitor.last_clear_step() == {}
    assert monitor.every_edge_cleared(3)
    assert monitor.all_clear_steps == []


@pytest.mark.parametrize("n", range(3, 9))
def test_advance_is_a_fixed_point_per_support(n):
    """``advance(s, advance(s, m)) == advance(s, m)`` for every support and mask.

    :meth:`SearchingMonitor.on_step` relies on it to skip the advance on
    an idle step whose configuration is the one it last saw.
    """
    dynamics = RingSearchDynamics(n)
    for support in range(1 << n):
        for mask in range(1 << n):
            once = dynamics.advance(support, mask)
            assert dynamics.advance(support, once) == once
