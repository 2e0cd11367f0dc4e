"""Tests for the exhaustive adversarial model checker."""

import io
import json

import pytest

from repro.analysis.feasibility import Feasibility, gathering_feasibility
from repro.campaign import ExecutionContext, run_campaign
from repro.cli import main, parse_int_grid
from repro.core.cyclic import canonical_dihedral
from repro.core.errors import UnsupportedParametersError
from repro.modelcheck import (
    ModelChecker,
    Verdict,
    build_verify_campaign,
    check_cell,
    make_task_spec,
    run_unit,
)
from repro.modelcheck.frontier import _initial_configurations


class TestVerdicts:
    @pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 7), (3, 8), (4, 8), (5, 8)])
    def test_gathering_solved_on_all_valid_cells_up_to_n8(self, k, n):
        result = check_cell("gathering", n, k)
        assert result.verdict is Verdict.SOLVED
        assert gathering_feasibility(n, k).verdict is Feasibility.FEASIBLE

    @pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (2, 7), (2, 8)])
    def test_two_robot_gathering_livelocks(self, k, n):
        result = check_cell("gathering", n, k)
        assert result.verdict is Verdict.LIVELOCK
        assert result.witness is not None
        assert result.witness.cycle_start is not None
        assert gathering_feasibility(n, k).verdict is Feasibility.INFEASIBLE

    @pytest.mark.parametrize("k,n", [(4, 8), (4, 9), (5, 9), (3, 7)])
    def test_align_solved(self, k, n):
        assert check_cell("align", n, k).verdict is Verdict.SOLVED

    @pytest.mark.parametrize("k,n", [(7, 10), (8, 11)])
    def test_nminusthree_searching_and_exploration_solved(self, k, n):
        assert check_cell("searching", n, k).verdict is Verdict.SOLVED
        assert check_cell("exploration", n, k).verdict is Verdict.SOLVED

    @pytest.mark.parametrize("k,n", [(5, 11), (6, 11)])
    def test_ring_clearing_searching_and_exploration_solved(self, k, n):
        assert check_cell("searching", n, k).verdict is Verdict.SOLVED
        assert check_cell("exploration", n, k).verdict is Verdict.SOLVED

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (3, 6)])
    def test_sweep_baseline_defeated_on_infeasible_searching_cells(self, k, n):
        result = check_cell("searching", n, k)
        assert result.verdict in (Verdict.COLLISION, Verdict.LIVELOCK)
        assert result.witness is not None
        assert not result.paper_algorithm

    def test_single_robot_searching_livelock_with_cycle_witness(self):
        result = check_cell("searching", 4, 1)
        assert result.verdict is Verdict.LIVELOCK
        assert "never clear" in result.witness.note

    def test_unknown_on_tiny_state_cap(self):
        result = check_cell("searching", 11, 5, max_states=5)
        assert result.verdict is Verdict.UNKNOWN
        assert any("state cap" in note for note in result.notes)

    def test_error_verdict_outside_algorithm_domain(self):
        # k = n - 2: gathering's theorem hypotheses are void and the
        # algorithm rejects the cell — surfaced as ERROR, not a crash.
        result = check_cell("gathering", 6, 4)
        assert result.verdict is Verdict.ERROR
        assert result.witness is not None

    def test_unknown_task_rejected(self):
        with pytest.raises(UnsupportedParametersError):
            make_task_spec("patrolling", 8, 3)

    def test_bad_adversary_rejected(self):
        with pytest.raises(ValueError):
            ModelChecker("gathering", 8, 3, adversary="fsync")


class TestSequentialAdversary:
    def test_sequential_is_weaker_than_ssync_for_two_robot_gathering(self):
        # The k = 2 impossibility needs simultaneous activation: one
        # robot at a time always gathers, so the sequential adversary
        # finds no livelock while SSYNC does.
        assert check_cell("gathering", 6, 2, adversary="sequential").verdict is Verdict.SOLVED
        assert check_cell("gathering", 6, 2, adversary="ssync").verdict is Verdict.LIVELOCK

    def test_sequential_agrees_on_positive_cells(self):
        assert check_cell("gathering", 7, 3, adversary="sequential").verdict is Verdict.SOLVED
        assert check_cell("searching", 10, 7, adversary="sequential").verdict is Verdict.SOLVED

    def test_sequential_still_defeats_sweep(self):
        result = check_cell("searching", 6, 3, adversary="sequential")
        assert result.verdict in (Verdict.COLLISION, Verdict.LIVELOCK)


class TestWitnessReplay:
    def test_livelock_witness_replays_through_driver(self):
        checker = ModelChecker("gathering", 6, 2)
        result = checker.run()
        witness = result.witness
        trajectory = checker.driver.replay(
            witness.initial_counts, [step.profile for step in witness.steps]
        )
        assert trajectory[1:] == [step.counts_after for step in witness.steps]
        # The loop really loops: replaying the cycle suffix from its
        # entry state returns to it (up to ring automorphism).
        cycle = witness.steps[witness.cycle_start:]
        entry = (
            witness.initial_counts
            if witness.cycle_start == 0
            else witness.steps[witness.cycle_start - 1].counts_after
        )
        loop = checker.driver.replay(entry, [step.profile for step in cycle])
        assert canonical_dihedral(loop[-1]) == canonical_dihedral(entry)

    def test_collision_witness_replays_and_collides(self):
        checker = ModelChecker("searching", 6, 3)
        result = checker.run()
        assert result.verdict is Verdict.COLLISION
        witness = result.witness
        trajectory = checker.driver.replay(
            witness.initial_counts, [step.profile for step in witness.steps]
        )
        assert max(trajectory[-1]) > 1
        assert all(max(counts) == 1 for counts in trajectory[:-1])

    def test_witness_serialises(self):
        result = check_cell("gathering", 6, 2)
        document = result.to_jsonable()
        text = json.dumps(document)
        assert "cycle_start" in text
        assert document["witness"]["steps"]


class TestStateSpace:
    def test_reach_states_are_canonical(self):
        checker = ModelChecker("gathering", 8, 4)
        result = checker.run()
        assert result.verdict is Verdict.SOLVED
        # Canonical dedup: the number of states must not exceed the
        # number of dihedral classes of occupancy vectors it could visit.
        assert result.num_states < 20

    def test_search_states_track_clear_edges(self):
        result = check_cell("searching", 10, 7)
        # Concrete searching states outnumber the canonical gathering
        # states by an order of magnitude: the phase (clear-edge set) and
        # the ring position both matter.
        assert result.num_states > 20

    def test_states_per_second_reported(self):
        result = check_cell("searching", 11, 6)
        assert result.elapsed_s > 0
        assert result.states_per_second > 0

    def test_initial_configurations_are_shared_per_cell(self):
        configurations, note = _initial_configurations(9, 4)
        assert _initial_configurations(9, 4)[0] is configurations
        assert _initial_configurations(9, 5)[0] is not configurations
        assert note == f"{len(configurations)} rigid initial configuration class(es)"
        assert _initial_configurations.cache_info().maxsize == 64


class TestVerifyCampaign:
    CELLS = ((2, 6), (3, 6), (3, 7))

    def test_grid_runs_and_reports(self):
        report = run_campaign(build_verify_campaign("gathering", self.CELLS), run_unit)
        assert len(report.records) == len(self.CELLS)
        verdicts = {
            (record["k"], record["n"]): record["payload"]["result"]["verdict"]
            for record in report.records
        }
        assert verdicts == {(2, 6): "livelock", (3, 6): "solved", (3, 7): "solved"}

    def test_serial_and_parallel_summaries_byte_identical(self):
        campaign = build_verify_campaign("gathering", self.CELLS)
        serial = run_campaign(campaign, run_unit, ExecutionContext(jobs=1))
        parallel = run_campaign(campaign, run_unit, ExecutionContext(jobs=4))
        assert serial.summary_bytes() == parallel.summary_bytes()

    def test_store_resume(self, tmp_path):
        store = str(tmp_path / "verify")
        campaign = build_verify_campaign("gathering", self.CELLS)
        first = run_campaign(campaign, run_unit, ExecutionContext(store=store))
        assert not first.resumed
        second = run_campaign(campaign, run_unit, ExecutionContext(store=store))
        assert len(second.resumed) == len(self.CELLS)
        assert first.summary_bytes() == second.summary_bytes()

    def test_raised_max_states_is_a_new_campaign(self, tmp_path):
        """A stale UNKNOWN must not be resumed when the cap is raised."""
        store = str(tmp_path / "verify")
        capped = run_campaign(
            build_verify_campaign("gathering", ((3, 8),), max_states=2),
            run_unit,
            ExecutionContext(store=store),
        )
        assert capped.records[0]["payload"]["result"]["verdict"] == "unknown"
        raised = run_campaign(
            build_verify_campaign("gathering", ((3, 8),), max_states=10_000),
            run_unit,
            ExecutionContext(store=store),
        )
        assert not raised.resumed
        assert raised.records[0]["payload"]["result"]["verdict"] == "solved"

    def test_worker_payload_has_no_timing(self):
        campaign = build_verify_campaign("gathering", ((3, 6),))
        payload = run_unit(campaign.units[0].as_dict())
        assert "elapsed_s" not in payload["result"]
        assert "states_per_second" not in payload["result"]

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            build_verify_campaign("patrolling", ((3, 6),))


class TestVerifyCli:
    def test_parse_int_grid(self):
        assert parse_int_grid("4") == (4,)
        assert parse_int_grid("3,5") == (3, 5)
        assert parse_int_grid("3-6") == (3, 4, 5, 6)
        assert parse_int_grid("2,4-6,4") == (2, 4, 5, 6)

    def test_verify_solved_exit_zero(self):
        out = io.StringIO()
        assert main(["verify", "gathering", "--k", "3", "--n", "6-7"], out=out) == 0
        text = out.getvalue()
        assert "solved" in text

    def test_verify_livelock_is_conclusive(self):
        out = io.StringIO()
        assert main(["verify", "gathering", "--k", "2", "--n", "6"], out=out) == 0
        assert "livelock" in out.getvalue()

    def test_verify_error_exit_nonzero(self):
        out = io.StringIO()
        assert main(["verify", "gathering", "--k", "4", "--n", "6"], out=out) == 1
        assert "error" in out.getvalue()

    def test_verify_json_output(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "verdicts.json"
        assert (
            main(
                ["verify", "searching", "--k", "3", "--n", "6", "--json", str(path)],
                out=out,
            )
            == 0
        )
        document = json.loads(path.read_text())
        assert document["task"] == "searching"
        assert document["cells"][0]["verdict"] == "collision"
        assert document["cells"][0]["witness"]["steps"]

    def test_verify_skips_invalid_cells(self):
        out = io.StringIO()
        assert main(["verify", "gathering", "--k", "3,9", "--n", "8"], out=out) == 0
        assert "skipped invalid cells" in out.getvalue()

    def test_verify_jobs_flag(self):
        out = io.StringIO()
        assert main(["verify", "gathering", "--k", "3", "--n", "6", "--jobs", "2"], out=out) == 0

    @pytest.mark.parametrize("grid", ["5-3", "3-", "", "a-b"])
    def test_malformed_grid_is_a_usage_error(self, grid, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "gathering", "--k", grid, "--n", "8"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "--k" in capsys.readouterr().err
