"""Tests for the experiment drivers, report rendering and the CLI."""

import argparse
import io

import pytest

from repro.cli import build_parser, main, parse_int_grid
from repro.experiments import EXPERIMENTS
from repro.experiments import e6_feasibility_table
from repro.experiments.report import ExperimentResult, render_table
from repro.workloads.suites import Suite


class TestReportRendering:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), (30, "x")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text
        assert all(len(line) == len(lines[0]) for line in lines[:1])

    def test_experiment_result_render(self):
        result = ExperimentResult(
            experiment="E0", title="demo", header=("x", "y"), rows=[(1, 2)]
        )
        result.add_row(3, 4)
        result.add_note("a note")
        text = result.render()
        assert "E0" in text and "a note" in text and "PASS" in text

    def test_experiment_result_fail_rendering(self):
        result = ExperimentResult(experiment="E0", title="demo", header=("x",), passed=False)
        assert "FAIL" in result.render()


class TestExperimentRegistry:
    def test_registry_contains_all_eight(self):
        assert sorted(EXPERIMENTS) == ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"]

    def test_e1_quick_passes(self):
        result = EXPERIMENTS["e1"]("quick")
        assert result.passed
        assert len(result.rows) == 6
        assert all(row[-1] == "yes" for row in result.rows)

    def test_e6_simulation_cross_check_helper(self):
        assert e6_feasibility_table.simulation_cross_check(6, 11)
        assert e6_feasibility_table.simulation_cross_check(7, 10)
        assert not e6_feasibility_table.simulation_cross_check(4, 9)

    def test_suite_dataclass_defaults(self):
        suite = Suite(name="x", description="d", pairs=((3, 9),))
        assert suite.samples_per_pair == 3
        assert suite.steps_factor == 30

    def test_e8_quick_passes_and_agrees_everywhere(self):
        result = EXPERIMENTS["e8"]("quick")
        assert result.passed
        assert all(row[-1] == "yes" for row in result.rows)
        # Feasible and infeasible cells are both represented...
        verdicts = {row[4] for row in result.rows}
        assert "solved" in verdicts
        assert verdicts & {"collision", "livelock"}
        # ...and at least one infeasible cell produced a concrete trace.
        assert any("counterexample trace" in note for note in result.notes)

    def test_e8_applicable_checks_cover_tasks(self):
        from repro.experiments.e8_verification import applicable_checks

        checks = {task for task, _, _ in applicable_checks(7, 10)}
        assert checks == {"gathering", "align", "searching", "exploration"}
        assert {task for task, _, _ in applicable_checks(2, 6)} == {"gathering", "searching"}


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "e1"])
        assert args.name == "e1" and not args.full
        args = parser.parse_args(["census", "9", "6"])
        assert (args.n, args.k) == (9, 6)

    def test_cli_census(self):
        out = io.StringIO()
        assert main(["census", "9", "6"], out=out) == 0
        assert "7" in out.getvalue()

    def test_cli_feasibility(self):
        out = io.StringIO()
        assert main(["feasibility", "12"], out=out) == 0
        text = out.getvalue()
        assert "feasible" in text and "infeasible" in text and "open" in text

    def test_cli_experiment_e1(self):
        out = io.StringIO()
        assert main(["experiment", "e1"], out=out) == 0
        assert "Figure 4" in out.getvalue()

    def test_cli_experiment_parallel_jobs(self):
        out = io.StringIO()
        assert main(["experiment", "e1", "--jobs", "2"], out=out) == 0
        assert "Figure 4" in out.getvalue()

    def test_cli_experiment_store_resume(self, tmp_path):
        store = str(tmp_path / "results")
        first = io.StringIO()
        assert main(["experiment", "e1", "--store", store], out=first) == 0
        second = io.StringIO()
        assert main(["experiment", "e1", "--store", store], out=second) == 0
        assert "restored from the result store" in second.getvalue()
        assert (tmp_path / "results" / "e1-quick" / "summary.json").exists()

    def test_parser_campaign_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "e7", "--jobs", "4", "--store", "r", "--progress"])
        assert args.jobs == 4 and args.store == "r" and args.progress
        args = parser.parse_args(["all", "--jobs", "2"])
        assert args.jobs == 2 and args.store is None

    def test_cli_demo_align(self):
        out = io.StringIO()
        assert main(["demo", "align", "12", "5", "--steps", "300"], out=out) == 0
        assert "reached C*" in out.getvalue()

    def test_cli_demo_gathering(self):
        out = io.StringIO()
        assert main(["demo", "gathering", "11", "4", "--steps", "2000"], out=out) == 0
        assert "gathered!" in out.getvalue()

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e42"], out=io.StringIO())


class TestCliErrorPaths:
    def test_unknown_verify_task_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "conquest", "--k", "3", "--n", "6"], out=io.StringIO())

    def test_unknown_demo_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "teleport", "12", "5"], out=io.StringIO())

    @pytest.mark.parametrize("grid", ["", " , ", "3-x", "x", "5-3", "1-2-3x"])
    def test_parse_int_grid_rejects_malformed(self, grid):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_int_grid(grid)

    def test_parse_int_grid_accepts_mixes(self):
        assert parse_int_grid("2,4-6") == (2, 4, 5, 6)
        assert parse_int_grid("3, 3,3-4") == (3, 4)

    def test_malformed_grid_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "gathering", "--k", "3-x", "--n", "6"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "malformed" in capsys.readouterr().err

    def test_verify_grid_without_valid_cells_exits_2(self, capsys):
        # k > n everywhere: every cell is invalid.
        assert main(["verify", "gathering", "--k", "9", "--n", "4"], out=io.StringIO()) == 2
        assert "no valid (k, n) cells" in capsys.readouterr().err

    def test_cache_and_no_cache_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["experiment", "e1", "--cache", str(tmp_path), "--no-cache"],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2

    def test_store_pointing_at_a_file_rejected(self, tmp_path):
        bogus = tmp_path / "store.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "e1", "--store", str(bogus)], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_store_and_cache_must_differ(self, tmp_path):
        shared = str(tmp_path / "dir")
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["experiment", "e1", "--jobs", "2", "--store", shared, "--cache", shared],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e1", "--jobs", "0"], out=io.StringIO())

    def test_negative_demo_steps_is_a_usage_error_not_a_traceback(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "align", "12", "5", "--steps", "-1"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "steps must be >= 0" in capsys.readouterr().err

    def test_serve_does_not_accept_refresh(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--refresh"])


class TestCliResultCache:
    def test_demo_second_invocation_is_a_cache_hit_with_zero_engine_steps(
        self, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "cache")
        argv = ["demo", "align", "12", "5", "--steps", "300", "--cache", cache]
        first = io.StringIO()
        assert main(argv, out=first) == 0
        assert "reached C*" in first.getvalue()

        from repro.simulator.engine import Simulator

        def no_step(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("engine stepped during a cached CLI run")

        monkeypatch.setattr(Simulator, "step", no_step)
        second = io.StringIO()
        assert main(argv, out=second) == 0
        assert second.getvalue() == first.getvalue()

    def test_verify_second_invocation_served_from_cache(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        argv = ["verify", "searching", "--k", "3", "--n", "6", "--cache", cache]
        first = io.StringIO()
        assert main(argv, out=first) == 0

        from repro.modelcheck.checker import ModelChecker

        def no_run(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("model checker ran during a cached CLI run")

        monkeypatch.setattr(ModelChecker, "run", no_run)
        second = io.StringIO()
        assert main(argv, out=second) == 0
        assert second.getvalue() == first.getvalue()

    def test_cache_env_var_is_honoured(self, tmp_path, monkeypatch):
        from repro.cli import CACHE_ENV_VAR

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        out = io.StringIO()
        assert main(["demo", "align", "12", "5", "--steps", "300"], out=out) == 0
        assert (tmp_path / "envcache").is_dir()

    def test_no_cache_disables_env_var(self, tmp_path, monkeypatch):
        from repro.cli import CACHE_ENV_VAR

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        out = io.StringIO()
        assert main(["demo", "align", "12", "5", "--steps", "300", "--no-cache"], out=out) == 0
        assert not (tmp_path / "envcache").exists()

    def test_env_cache_pointing_at_a_file_rejected(self, tmp_path, monkeypatch):
        from repro.cli import CACHE_ENV_VAR

        bogus = tmp_path / "cache.json"
        bogus.write_text("{}")
        monkeypatch.setenv(CACHE_ENV_VAR, str(bogus))
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "align", "12", "5"], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_refresh_re_executes_despite_cache(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        argv = ["demo", "align", "12", "5", "--steps", "300", "--cache", cache]
        first = io.StringIO()
        assert main(argv, out=first) == 0

        from repro.batchsim import BatchEngine

        steps = {"n": 0}
        real_run = BatchEngine.run

        def counting_run(self, max_steps, **stop):
            real_run(self, max_steps, **stop)
            steps["n"] += sum(self.lane(i).step_count for i in range(self.num_lanes))

        monkeypatch.setattr(BatchEngine, "run", counting_run)
        second = io.StringIO()
        assert main(argv + ["--refresh"], out=second) == 0
        assert steps["n"] > 0, "--refresh must actually re-run the engine"
        assert second.getvalue() == first.getvalue()
