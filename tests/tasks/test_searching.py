"""Unit tests for the graph-searching state machine and monitor."""

from repro.core.configuration import Configuration
from repro.core.ring import Ring
from repro.algorithms.baselines import SweepAlgorithm
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions
from repro.simulator.trace import MoveRecord
from repro.tasks.searching import SearchingMonitor, SearchState


def make_state(n, occupied):
    ring = Ring(n)
    cfg = Configuration.from_occupied(n, occupied)
    return ring, cfg, SearchState(ring, cfg)


class TestInitialState:
    def test_all_contaminated_with_spread_robots(self):
        _, _, state = make_state(8, [0, 4])
        assert not state.clear_edges
        assert len(state.contaminated_edges) == 8
        assert not state.all_clear

    def test_adjacent_robots_guard_their_edge(self):
        _, _, state = make_state(8, [0, 1])
        assert state.is_clear(0, 1)
        assert len(state.clear_edges) == 1

    def test_block_of_robots_guards_internal_edges(self):
        _, _, state = make_state(10, [2, 3, 4, 5])
        assert state.is_clear(2, 3)
        assert state.is_clear(3, 4)
        assert state.is_clear(4, 5)
        assert not state.is_clear(5, 6)

    def test_fully_occupied_ring_is_clear(self):
        _, _, state = make_state(5, [0, 1, 2, 3, 4])
        assert state.all_clear


class TestDynamics:
    def test_traversal_clears_edge_when_guarded(self):
        # Robots at 0 and 2; the robot at 0 moves to 1: edge (0,1) is
        # traversed but node 0 becomes unoccupied, so (0,1) is immediately
        # recontaminated from the contaminated side; edge (1,2) becomes
        # guarded by both endpoints.
        ring, _, state = make_state(8, [0, 2])
        after = Configuration.from_occupied(8, [1, 2])
        state.apply_moves([MoveRecord(0, 0, 1)], after)
        assert state.is_clear(1, 2)
        assert not state.is_clear(0, 1)

    def test_two_robot_sweep_clears_ring(self):
        """The centralized 2-robot strategy of Section 4.1 clears all edges."""
        n = 7
        ring = Ring(n)
        cfg = Configuration.from_occupied(n, [0, 1])
        state = SearchState(ring, cfg)
        # The robot at node 1 is the anchor; the robot at 0 walks the long
        # way around (0 -> 6 -> 5 -> ... -> 2).
        position = 0
        path = [6, 5, 4, 3, 2]
        for target in path:
            after_nodes = [1, target]
            after = Configuration.from_occupied(n, after_nodes)
            state.apply_moves([MoveRecord(0, position, target)], after)
            position = target
        assert state.all_clear

    def test_single_robot_cannot_clear(self):
        n = 6
        ring = Ring(n)
        cfg = Configuration.from_occupied(n, [0])
        state = SearchState(ring, cfg)
        position = 0
        for _ in range(3 * n):
            target = (position + 1) % n
            after = Configuration.from_occupied(n, [target])
            state.apply_moves([MoveRecord(0, position, target)], after)
            position = target
            assert len(state.clear_edges) <= 1

    def test_clear_region_survives_while_guarded(self):
        # A clear run of edges bounded by robots on both sides cannot be
        # recontaminated, even if interior nodes are unoccupied.
        ring, _, state = make_state(10, [3, 4])
        assert state.is_clear(3, 4)
        after = Configuration.from_occupied(10, [3, 5])
        state.apply_moves([MoveRecord(1, 4, 5)], after)
        assert state.is_clear(4, 5)
        assert state.is_clear(3, 4)
        # Extending the guarded region keeps every interior edge clear.
        after2 = Configuration.from_occupied(10, [2, 5])
        state.apply_moves([MoveRecord(0, 3, 2)], after2)
        assert state.is_clear(2, 3)
        assert state.is_clear(3, 4)
        assert state.is_clear(4, 5)

    def test_recontamination_when_guard_leaves(self):
        # Robots at 3 and 5 guard the region {3..5}; when the robot at 3
        # walks towards 5 it abandons node 3, and the contaminated edge
        # (2, 3) recontaminates the edge (3, 4) behind it.
        ring, _, state = make_state(10, [3, 5])
        after = Configuration.from_occupied(10, [4, 5])
        state.apply_moves([MoveRecord(0, 3, 4)], after)
        assert state.is_clear(4, 5)
        assert not state.is_clear(3, 4)

    def test_idle_step_keeps_state(self):
        ring, cfg, state = make_state(8, [0, 1])
        before = state.clear_edges
        state.apply_moves([], cfg)
        assert state.clear_edges == before


class TestSearchingMonitor:
    def test_monitor_records_initial_guarded_edges(self):
        cfg = Configuration.from_occupied(8, [0, 1, 2])
        monitor = SearchingMonitor()
        Simulator(SweepAlgorithm(), cfg, monitors=[monitor], options=EngineOptions(chirality=True))
        counts = monitor.clearing_counts()
        assert counts[(0, 1)] == 1
        assert counts[(1, 2)] == 1
        assert counts[(4, 5)] == 0

    def test_monitor_tracks_history_during_run(self):
        cfg = Configuration.from_occupied(8, [0, 1, 2])
        monitor = SearchingMonitor()
        engine = Simulator(SweepAlgorithm(), cfg, monitors=[monitor], options=EngineOptions(chirality=True))
        engine.run(40)
        assert monitor.every_edge_cleared(0)
        assert isinstance(monitor.edges_never_cleared(), tuple)
        last = monitor.last_clear_step()
        assert set(last) == set(Ring(8).edges())

    def test_monitor_requires_start(self):
        monitor = SearchingMonitor()
        try:
            monitor.state
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected RuntimeError")
