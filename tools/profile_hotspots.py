"""cProfile top-N over one model-checker cell, game-solver instance or campaign unit.

The profiling harness behind the packed-state frontier work: point it at
a cell, read the hottest frames, decide what to attack next.

``--experiment eN`` profiles ``run_unit`` of one unit of that
experiment's quick campaign: the unit of cell ``(--k, --n)`` when both
are given, else the unit with the largest step budget
(``steps_factor * n * k``).

``--frontier`` profiles the *warm* frontier loop: one unprofiled run
first populates the persistent per-cell caches (expansion plans,
canonicalization memos, dynamics tables — see
``repro.modelcheck.frontier.cell_cache``), then ``--repeat`` further
runs are profiled.  That isolates the per-run engine mechanics (BFS,
canonicalisation, livelock search) from the one-time cell planning cost
that dominates a cold profile.

Examples::

    PYTHONPATH=src python tools/profile_hotspots.py searching --k 6 --n 13
    PYTHONPATH=src python tools/profile_hotspots.py searching --k 6 --n 13 --frontier
    PYTHONPATH=src python tools/profile_hotspots.py --game --k 3 --n 6 --top 15
    PYTHONPATH=src python tools/profile_hotspots.py --experiment e5
    PYTHONPATH=src python tools/profile_hotspots.py --experiment e3 --k 6 --n 11
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
from time import perf_counter

from repro.analysis.game import searching_game_verdict
from repro.campaign import build_campaign
from repro.experiments import EXPERIMENTS
from repro.modelcheck import check_cell
from repro.modelcheck.results import DEFAULT_MAX_STATES
from repro.modelcheck.tasks import TASKS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="profile one model-checker cell (cProfile top-N)"
    )
    parser.add_argument(
        "task",
        nargs="?",
        default="searching",
        choices=sorted(TASKS),
        help="verification task (default: searching); ignored with --game/--experiment",
    )
    parser.add_argument("--k", type=int, help="number of robots")
    parser.add_argument("--n", type=int, help="ring size")
    parser.add_argument(
        "--adversary", choices=["ssync", "sequential"], default="ssync"
    )
    parser.add_argument(
        "--max-states", type=int, default=DEFAULT_MAX_STATES, metavar="M"
    )
    parser.add_argument(
        "--game", action="store_true",
        help="profile the E6 adversary game solver on (k, n) instead",
    )
    parser.add_argument(
        "--experiment", choices=sorted(EXPERIMENTS), default=None,
        help=(
            "profile run_unit of one quick-campaign unit of this experiment "
            "instead: cell (--k, --n) if given, else the largest budget"
        ),
    )
    parser.add_argument(
        "--frontier", action="store_true",
        help=(
            "profile the warm frontier loop: run the cell once unprofiled "
            "to populate the persistent per-cell caches, then profile "
            "--repeat further runs (not applicable with --game)"
        ),
    )
    parser.add_argument(
        "--repeat", type=int, default=5, metavar="R",
        help="profiled repetitions in --frontier mode (default: 5)",
    )
    parser.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="number of stack frames to print (default: 25)",
    )
    parser.add_argument(
        "--sort", choices=["cumulative", "tottime", "calls"], default="cumulative"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also dump raw pstats data for snakeviz/pstats browsing",
    )
    return parser


def quick_unit(experiment, k=None, n=None):
    """The quick-campaign unit of cell ``(k, n)``, or the one with the largest budget."""
    units = build_campaign(experiment, "quick").units
    if k is None and n is None:
        return max(units, key=lambda unit: unit.steps_factor * unit.n * unit.k)
    for unit in units:
        if (unit.k, unit.n) == (k, n):
            return unit
    raise ValueError(f"{experiment} quick campaign has no unit for k={k} n={n}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.game or args.experiment) and args.frontier:
        parser.error("--frontier profiles the model checker only")
    if args.game and args.experiment:
        parser.error("choose one of --game and --experiment")
    cell_args = (args.k is not None) + (args.n is not None)
    if cell_args == 1 or (cell_args == 0 and not args.experiment):
        parser.error("--k and --n are required (both may be omitted with --experiment)")
    if args.experiment:
        try:
            unit = quick_unit(args.experiment, args.k, args.n)
        except ValueError as error:
            parser.error(str(error))
        run_unit = importlib.import_module(EXPERIMENTS[args.experiment].__module__).run_unit
        payload = unit.as_dict()

        def workload():
            return run_unit(payload)
        label = f"{args.experiment} quick unit {unit.unit_id}"
    elif args.game:
        def workload():
            return searching_game_verdict(args.n, args.k)
        label = f"game solver k={args.k} n={args.n}"
    else:
        def check_once():
            return check_cell(
                args.task,
                args.n,
                args.k,
                adversary=args.adversary,
                max_states=args.max_states,
            )
        if args.frontier:
            check_once()  # unprofiled warm-up populates the cell caches
            def workload():
                for _ in range(args.repeat - 1):
                    check_once()
                return check_once()
            label = (
                f"{args.task} k={args.k} n={args.n} "
                f"({args.adversary}, warm frontier x{args.repeat})"
            )
        else:
            workload = check_once
            label = (
                f"{args.task} k={args.k} n={args.n} "
                f"({args.adversary})"
            )

    profiler = cProfile.Profile()
    started = perf_counter()
    profiler.enable()
    result = workload()
    profiler.disable()
    elapsed = perf_counter() - started

    if args.experiment:
        outcome_text = "passed" if result.get("passed") else "failed"
    else:
        outcome = getattr(result, "verdict", None)
        outcome_text = getattr(outcome, "value", outcome)
    print(f"# {label}: {outcome_text} in {elapsed:.3f}s (profiled)", file=sys.stderr)
    stats = pstats.Stats(profiler)
    if args.out:
        stats.dump_stats(args.out)
        print(f"# raw profile written to {args.out}", file=sys.stderr)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
