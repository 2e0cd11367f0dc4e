"""Benchmark E6 — feasibility characterization and adversary game solver."""

import pytest

from repro.analysis.feasibility import Feasibility, feasibility_table, searching_feasibility
from repro.analysis.game import GameVerdict, searching_game_verdict


def test_feasibility_table_generation(benchmark):
    rows = benchmark(feasibility_table, "searching", 24)
    verdicts = {cell.verdict for cell in rows}
    assert Feasibility.FEASIBLE in verdicts
    assert Feasibility.INFEASIBLE in verdicts
    assert Feasibility.OPEN in verdicts


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (5, 3), (6, 3)])
def test_game_solver_rederives_impossibility(benchmark, n, k):
    result = benchmark(searching_game_verdict, n, k)
    assert result.verdict is GameVerdict.IMPOSSIBLE
    assert searching_feasibility(n, k).verdict is Feasibility.INFEASIBLE


def test_game_solver_eight_node_two_robots(benchmark):
    """Theorem 2 base case on the largest ring the solver handles quickly."""
    result = benchmark(searching_game_verdict, 8, 2)
    assert result.verdict is GameVerdict.IMPOSSIBLE


def _feasibility_tables_n300():
    """Every task's table up to n=300 (~60k cells): long enough to gate."""
    return [feasibility_table(task, 300) for task in ("exploration", "gathering", "searching")]


def main():
    from _harness import emit

    emit(
        "e6",
        {
            "feasibility-tables-n300": _feasibility_tables_n300,
            "game-solver-n6-k3": lambda: searching_game_verdict(6, 3),
        },
    )


if __name__ == "__main__":
    main()
