"""Smoke tests for tools/profile_hotspots.py's ``--experiment`` mode."""

import importlib.util
import os

import pytest

_TOOL_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
    "profile_hotspots.py",
)
_spec = importlib.util.spec_from_file_location("profile_hotspots", _TOOL_PATH)
profile_hotspots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_hotspots)


def test_default_unit_is_the_largest_budget(capsys):
    assert profile_hotspots.main(["--experiment", "e3", "--top", "5"]) == 0
    captured = capsys.readouterr()
    assert "# e3 quick unit u004-k008-n013: passed" in captured.err
    assert "run_unit" in captured.out


def test_cell_selection(capsys):
    assert profile_hotspots.main(["--experiment", "e4", "--k", "7", "--n", "10", "--top", "3"]) == 0
    assert "# e4 quick unit u000-k007-n010: passed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--experiment", "e3", "--k", "6"],
        ["--experiment", "e3", "--k", "6", "--n", "99"],
        ["--experiment", "e3", "--game"],
        ["--experiment", "e3", "--frontier"],
        ["searching"],
    ],
)
def test_usage_errors(argv):
    with pytest.raises(SystemExit) as error:
        profile_hotspots.main(argv)
    assert error.value.code == 2
