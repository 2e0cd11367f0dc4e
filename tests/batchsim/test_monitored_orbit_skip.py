"""Monitored round-robin lanes skip whole periods of their orbit, exactly.

A lane whose monitors all define ``orbit_key`` and ``orbit_skip``
fast-forwards its periodic orbit and has the monitors replay the skipped
periods.  Adding one monitor that does not opt in makes the same lane
step one by one, so every test below runs each lane twice and compares
the lane state and every monitor's full state between the two: Ring
Clearing and NminusThree on n = 10..20, several starts, uneven budgets
and a second ``run`` call.  A few lanes are also checked against the
reference stepper, which shares no code with the engine.
"""

import random

import pytest

from repro.algorithms import NminusThreeAlgorithm, RingClearingAlgorithm, SweepAlgorithm
from repro.algorithms.nminusthree import final_configurations
from repro.algorithms.ring_clearing import ring_clearing_supported
from repro.batchsim import BatchEngine
from repro.core.configuration import Configuration
from repro.experiments.e4_nminusthree import _FinalReached
from repro.simulator.options import EngineOptions
from repro.tasks import ExplorationMonitor, Monitor, SearchingMonitor
from repro.workloads.generators import random_rigid_configuration
from reference_stepper import ReferenceStepper


class _StepByStep(Monitor):
    """Opts out of orbit skips, so its lane is shown every step."""


def _cells():
    """One Ring Clearing and one NminusThree ``(algorithm, n, k)`` per ring size."""
    cells = []
    for n in range(10, 21):
        k = 5 + n % 4
        if ring_clearing_supported(n, k):
            cells.append((RingClearingAlgorithm, n, k))
        cells.append((NminusThreeAlgorithm, n, n - 3))
    return cells


def _monitors(algorithm_factory, k):
    searching, exploration = SearchingMonitor(), ExplorationMonitor()
    if algorithm_factory is NminusThreeAlgorithm:
        return [_FinalReached(set(final_configurations(k))), searching, exploration]
    return [searching, exploration]


def _monitor_state(monitors):
    """Every query a caller can make of the lane's monitors."""
    state = []
    for monitor in monitors:
        if isinstance(monitor, SearchingMonitor):
            state.append(
                (
                    [tuple(run) for run in monitor._runs],
                    monitor.all_clear_steps,
                    monitor.moves_to_first_all_clear,
                    monitor.clear_history,
                    monitor._mask,
                    monitor._moves,
                    monitor.state.clear_edges,
                )
            )
        elif isinstance(monitor, ExplorationMonitor):
            state.append((monitor.visit_counts, monitor.visit_steps, monitor.cover_time()))
        elif isinstance(monitor, _FinalReached):
            state.append(monitor.reached)
    return state


def _lane_state(engine, index):
    lane = engine.lane(index)
    return (
        tuple(lane.positions),
        lane.step_count,
        lane.total_moves,
        lane.counts_tuple,
        lane.rr,
        lane.rng.getstate(),
    )


def _run_lanes(algorithm_factory, starts, budgets, *, step_by_step, options=None):
    k = starts[0].k
    lanes = [_monitors(algorithm_factory, k) for _ in starts]
    extra = [_StepByStep()] if step_by_step else []
    engine = BatchEngine(
        algorithm_factory(),
        starts,
        options=options,
        monitors_factory=lambda i: lanes[i] + extra,
        record_events=False,
    )
    for budget in budgets:
        engine.run(budget)
    return engine, lanes


@pytest.fixture
def skip_calls(monkeypatch):
    """Count ``SearchingMonitor.orbit_skip`` calls (one per skipping lane)."""
    calls = []
    original = SearchingMonitor.orbit_skip

    def counting(self, *args):
        calls.append(args[1:])
        return original(self, *args)

    monkeypatch.setattr(SearchingMonitor, "orbit_skip", counting)
    return calls


@pytest.mark.parametrize(
    "algorithm_factory, n, k",
    _cells(),
    ids=lambda value: getattr(value, "__name__", value),
)
def test_skipping_lanes_equal_stepped_lanes(algorithm_factory, n, k, skip_calls):
    rng = random.Random(n * 100 + k)
    starts = [random_rigid_configuration(n, k, rng) for _ in range(3)]
    budgets = (rng.randrange(3 * n * k, 20 * n * k), rng.randrange(1, 15 * n * k))
    skipped, skipped_monitors = _run_lanes(algorithm_factory, starts, budgets, step_by_step=False)
    assert skip_calls, "no lane skipped: the test would compare nothing"
    del skip_calls[:]
    stepped, stepped_monitors = _run_lanes(algorithm_factory, starts, budgets, step_by_step=True)
    assert not skip_calls
    for i in range(len(starts)):
        assert not stepped.lane(i).orbit, "a lane with an opted-out monitor never skips"
        assert _lane_state(skipped, i) == _lane_state(stepped, i)
        assert _monitor_state(skipped_monitors[i]) == _monitor_state(stepped_monitors[i])


@pytest.mark.parametrize(
    "algorithm_factory, n, k",
    [(RingClearingAlgorithm, 13, 5), (NminusThreeAlgorithm, 12, 9)],
    ids=["ring-clearing", "nminusthree"],
)
def test_skipping_lanes_equal_the_reference_stepper(algorithm_factory, n, k, skip_calls):
    rng = random.Random(7)
    starts = [random_rigid_configuration(n, k, rng) for _ in range(2)]
    budgets = (25 * n * k + 3, 7 * n * k)
    engine, lanes = _run_lanes(algorithm_factory, starts, budgets, step_by_step=False)
    assert len(skip_calls) >= len(starts)
    for i, start in enumerate(starts):
        monitors = _monitors(algorithm_factory, k)
        reference = ReferenceStepper(algorithm_factory(), start, monitors=monitors)
        for budget in budgets:
            reference.run(budget)
        lane = engine.lane(i)
        assert tuple(lane.positions) == tuple(reference.robot(r).position for r in range(k))
        assert lane.step_count == reference.step_count
        assert lane.total_moves == reference.trace.total_moves
        assert lane.rng.getstate() == reference.rng.getstate()
        assert _monitor_state(lanes[i]) == _monitor_state(monitors)


def test_a_skip_draws_the_presentation_of_every_skipped_step(skip_calls):
    """The lane's RNG after a skip equals the stepped lane's, draw for draw."""
    n, k = 14, 6
    rng = random.Random(3)
    starts = [random_rigid_configuration(n, k, rng) for _ in range(4)]
    skipped, _ = _run_lanes(RingClearingAlgorithm, starts, (30 * n * k,), step_by_step=False)
    assert len(skip_calls) == len(starts)
    stepped, _ = _run_lanes(RingClearingAlgorithm, starts, (30 * n * k,), step_by_step=True)
    for i in range(len(starts)):
        assert skipped.lane(i).rng.getstate() == stepped.lane(i).rng.getstate()
        # The draws are not vacuous: the lane's RNG moved off its seed.
        assert skipped.lane(i).rng.getstate() != random.Random(0).getstate()


def test_a_partly_clear_mask_is_replayed_rotated(skip_calls):
    """Ring Clearing and NminusThree stay all clear once they are, so their
    replayed masks are rotation-invariant.  A clockwise sweep never clears
    the ring: its clear edges are the ones between neighbouring robots,
    and they travel round the ring with them."""
    options = EngineOptions(chirality=True)
    starts = [
        Configuration.from_positions(n, positions)
        for n, positions in ((10, (0, 1, 5)), (11, (0, 1, 2, 6)), (13, (0, 1, 4, 5, 9)))
    ]
    for start in starts:
        budgets = (7 * start.n * start.k + 5, 3 * start.n)
        del skip_calls[:]
        skipped, skipped_monitors = _run_lanes(
            SweepAlgorithm, [start], budgets, step_by_step=False, options=options
        )
        assert any(shift for _, _, _, shift, _ in skip_calls), "no skip rotated the ring"
        stepped, stepped_monitors = _run_lanes(
            SweepAlgorithm, [start], budgets, step_by_step=True, options=options
        )
        assert _lane_state(skipped, 0) == _lane_state(stepped, 0)
        assert _monitor_state(skipped_monitors[0]) == _monitor_state(stepped_monitors[0])
        searching = skipped_monitors[0][0]
        assert 0 < searching._mask < searching._dynamics.all_edges
        assert not searching.all_clear_steps
