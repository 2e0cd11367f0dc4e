"""Command-line interface.

``python -m repro`` (or the installed ``ringsim`` script) runs the
reproduction experiments and a few utility commands::

    ringsim experiment e1            # run experiment E1 (quick variant)
    ringsim experiment e3 --full     # run the full variant of E3
    ringsim all                      # run every experiment (quick)
    ringsim census 9 6               # configuration census for k=6, n=9
    ringsim feasibility 14           # searching feasibility table up to n=14
    ringsim demo align 12 5          # watch Align run on a random rigid start
    ringsim batch align 12 5 --seeds 0-63    # batched seed sweep (one engine)
    ringsim verify gathering --k 3-5 --n 8   # exhaustive model check
    ringsim serve --port 8421        # HTTP API over the same executor

The ``demo``, ``verify`` and ``experiment``/``all`` subcommands all
construct a declarative :class:`~repro.runs.spec.RunSpec` and hand it to
:func:`repro.runs.execute.execute` — the same code path tests,
benchmarks and the HTTP service use — so with ``--cache DIR`` (or the
``REPRO_RUN_CACHE`` environment variable) a repeated invocation with an
identical spec is served from the content-addressed result cache
without re-running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import List, Optional, Tuple

from .campaign.context import ExecutionContext
from .experiments import EXPERIMENTS
from .experiments.report import render_table
from .faults.errors import DeadlineExceeded
from .modelcheck.results import DEFAULT_MAX_STATES
from .modelcheck.tasks import TASKS as VERIFY_TASKS
from .runs import SCHEDULERS, BatchSweepSpec, ExperimentSpec, SimulateSpec, VerifySpec, execute
from .simulator.options import EngineOptions

__all__ = ["main", "build_parser", "parse_int_grid"]

#: Demo-capable algorithms (a subset of :data:`repro.runs.ALGORITHMS`)
#: mapped to the stop condition and engine model their task needs.
_DEMO_ALGORITHMS = {
    "align": {"stop": "c_star", "gathering": False},
    "ring-clearing": {"stop": None, "gathering": False},
    "n-minus-three": {"stop": None, "gathering": False},
    "gathering": {"stop": "gathered", "gathering": True},
}

#: Environment variable providing the default result-cache directory.
CACHE_ENV_VAR = "REPRO_RUN_CACHE"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description="Reproduction of 'A unified approach for different tasks on rings in "
        "robot-based computing systems' (D'Angelo et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run one experiment (e1..e8)")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--full", action="store_true", help="run the full (slow) variant")
    _add_campaign_arguments(exp)
    _add_cache_arguments(exp)

    run_all = sub.add_parser("all", help="run every experiment (quick variants)")
    _add_campaign_arguments(run_all)
    _add_cache_arguments(run_all)

    cen = sub.add_parser("census", help="configuration census for one (k, n)")
    cen.add_argument("n", type=int)
    cen.add_argument("k", type=int)

    feas = sub.add_parser("feasibility", help="searching feasibility table up to a ring size")
    feas.add_argument("max_n", type=int)
    feas.add_argument("--task", default="searching", choices=["searching", "exploration", "gathering"])

    demo = sub.add_parser("demo", help="run one algorithm on a random rigid configuration")
    demo.add_argument("algorithm", choices=sorted(_DEMO_ALGORITHMS))
    demo.add_argument("n", type=int)
    demo.add_argument("k", type=int)
    demo.add_argument("--steps", type=int, default=200)
    demo.add_argument("--seed", type=int, default=0)
    _add_cache_arguments(demo)

    batch = sub.add_parser(
        "batch",
        help="run a seed sweep of one algorithm as a single batched simulation",
    )
    batch.add_argument("algorithm", choices=sorted(_DEMO_ALGORITHMS))
    batch.add_argument("n", type=int)
    batch.add_argument("k", type=int)
    batch.add_argument("--steps", type=int, default=200)
    batch.add_argument(
        "--seeds", default="0-15", metavar="GRID", type=parse_int_grid,
        help="run seeds: '4', '0,7' or '0-63' (combinable; default: 0-15)",
    )
    batch.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="sequential",
        help="scheduler shared by every run (default: sequential)",
    )
    _add_timeout_argument(batch, "sweep (the whole batch runs under one deadline)")
    _add_cache_arguments(batch)

    verify = sub.add_parser(
        "verify",
        help="exhaustively model-check a task against every SSYNC adversary schedule",
    )
    verify.add_argument("task", choices=sorted(VERIFY_TASKS))
    verify.add_argument(
        "--k", required=True, metavar="GRID", type=parse_int_grid,
        help="robot counts: '4', '3,5' or '3-6' (combinable: '2,4-6')",
    )
    verify.add_argument(
        "--n", required=True, metavar="GRID", type=parse_int_grid,
        help="ring sizes, same syntax as --k",
    )
    verify.add_argument(
        "--adversary", choices=["ssync", "sequential"], default="ssync",
        help="adversary class explored (default: ssync)",
    )
    verify.add_argument(
        "--max-states", type=_positive_int, default=DEFAULT_MAX_STATES, metavar="M",
        help=f"per-cell state-space cap (default: {DEFAULT_MAX_STATES})",
    )
    verify.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full verdict documents (witnesses included) as JSON",
    )
    _add_campaign_arguments(verify)
    _add_cache_arguments(verify)

    serve = sub.add_parser(
        "serve",
        help="serve the execution layer over HTTP (POST /v1/runs, GET /v1/runs/<id>)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421)
    serve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="maximal number of concurrently executing runs (default: 2)",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes each campaign-backed run may use (default: 1)",
    )
    serve.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-run deadline: a hung run is killed and reported as a "
        "retryable error instead of occupying a worker forever",
    )
    serve.add_argument("--verbose", action="store_true", help="log every request to stderr")
    serve.add_argument(
        "--json-logs", action="store_true",
        help="emit one structured JSON log line per request to stderr "
        "(timestamp, client, method, path, status, duration)",
    )
    # No --refresh here: the service decides per-request whether to
    # execute, and a server-wide refresh flag would be misleading.
    _add_cache_arguments(serve, include_refresh=False)

    return parser


def parse_int_grid(text: str) -> Tuple[int, ...]:
    """Parse a grid expression: ``'4'``, ``'3,5'``, ``'3-6'`` or mixes."""
    values: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            low_text, high_text = part.split("-", 1)
            try:
                low, high = int(low_text), int(high_text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"malformed range {part!r} in grid expression {text!r}"
                ) from None
            if high < low:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            values.extend(range(low, high + 1))
        elif part:
            try:
                values.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"malformed value {part!r} in grid expression {text!r}"
                ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"no values in grid expression {text!r}")
    return tuple(dict.fromkeys(values))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_timeout_argument(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=f"deadline per {what}: an overrunning worker is killed "
        "(exit code 124 when the whole command times out)",
    )


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the experiment campaign (default: 1, serial)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory (enables resume and writes per-unit results + summary.json)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-unit campaign progress to stderr",
    )
    _add_timeout_argument(parser, "campaign unit")


def _add_cache_arguments(
    parser: argparse.ArgumentParser, include_refresh: bool = True
) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed result-cache directory (default: the "
        f"{CACHE_ENV_VAR} environment variable; unset disables caching)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even when "
        f"{CACHE_ENV_VAR} is set (conflicts with --cache)",
    )
    if include_refresh:
        parser.add_argument(
            "--refresh",
            action="store_true",
            help="re-execute even on a cache hit and overwrite the cached result",
        )


def _resolve_cache(parser: argparse.ArgumentParser, args) -> Optional[str]:
    """The cache directory for this invocation (flag > env > disabled)."""
    if getattr(args, "no_cache", False):
        if getattr(args, "cache", None):
            parser.error("--cache and --no-cache conflict; pass at most one")
        return None
    return getattr(args, "cache", None) or os.environ.get(CACHE_ENV_VAR) or None


def _validate_campaign_arguments(
    parser: argparse.ArgumentParser, args, cache: Optional[str]
) -> None:
    """Reject store/cache paths that cannot possibly work before running.

    ``cache`` is the *resolved* cache directory (flag or environment
    variable), so a bad ``REPRO_RUN_CACHE`` is caught exactly like a bad
    ``--cache``.
    """
    store = getattr(args, "store", None)
    if store is not None and os.path.exists(store) and not os.path.isdir(store):
        parser.error(f"--store {store!r} exists and is not a directory")
    if cache is not None and os.path.exists(cache) and not os.path.isdir(cache):
        parser.error(f"result cache {cache!r} exists and is not a directory")
    if store is not None and cache is not None:
        if os.path.abspath(store) == os.path.abspath(cache):
            parser.error(
                "the result-store and result-cache directories must differ "
                "(the cache would count <dir>/<campaign>/summary.json as one of its "
                "entries, and eviction or clearing would delete it)"
            )


def _progress_printer(done: int, total: int, record) -> None:
    print(
        f"[{done}/{total}] {record.get('campaign')} {record.get('unit_id')} "
        f"{record.get('status')} ({record.get('duration_s', 0.0):.2f}s)",
        file=sys.stderr,
    )


def _build_context(parser: argparse.ArgumentParser, args) -> ExecutionContext:
    """The invocation's execution context: every context field the
    subcommand has a flag for, with the resolved (and validated) cache
    directory and ``--progress`` turned into the stderr printer."""
    cache = _resolve_cache(parser, args)
    _validate_campaign_arguments(parser, args, cache)
    knobs = {
        field.name: getattr(args, field.name)
        for field in fields(ExecutionContext)
        if hasattr(args, field.name)
    }
    knobs["cache"] = cache
    knobs["progress"] = _progress_printer if knobs.get("progress") else None
    try:
        return ExecutionContext(**knobs)
    except ValueError as exc:
        parser.error(str(exc))


def _run_experiment(name: str, full: bool, out, ctx: ExecutionContext) -> int:
    spec = ExperimentSpec(name=name, variant="full" if full else "quick")
    result = execute(spec, ctx)
    print(result.payload["rendered"], file=out)
    return 0 if result.payload["passed"] else 1


def _run_all(out, ctx: ExecutionContext) -> int:
    status = 0
    for name in sorted(EXPERIMENTS):
        if _run_experiment(name, False, out, ctx):
            status = 1
        print("", file=out)
    return status


def _run_census(n: int, k: int, out) -> int:
    from .analysis.enumeration import census

    c = census(n, k)
    print(
        render_table(
            ("k", "n", "total", "rigid", "symmetric", "periodic"),
            [(c.k, c.n, c.total, c.rigid, c.symmetric_aperiodic, c.periodic)],
        ),
        file=out,
    )
    return 0


def _run_feasibility(max_n: int, task: str, out) -> int:
    from .analysis.feasibility import feasibility_table

    rows = [cell.as_row() for cell in feasibility_table(task, max_n)]
    print(render_table(("k", "n", "verdict", "reference"), rows), file=out)
    return 0


def _run_demo(parser, args, out, ctx: ExecutionContext) -> int:
    profile = _DEMO_ALGORITHMS[args.algorithm]
    gathering = profile["gathering"]
    try:
        spec = SimulateSpec(
            algorithm=args.algorithm,
            n=args.n,
            k=args.k,
            steps=args.steps,
            seed=args.seed,
            stop=profile["stop"],
            engine=EngineOptions(
                exclusive=not gathering,
                multiplicity_detection=gathering,
                presentation_seed=args.seed,
            ),
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = execute(spec, ctx)
    payload = result.payload
    print(f"initial: {payload['initial_art']}", file=out)
    for frame in payload["frames"]:
        print(f"step {frame['step']:4d}: {frame['art']}", file=out)
    if gathering and payload["gathered"]:
        print("gathered!", file=out)
    elif args.algorithm == "align" and payload["reached_c_star"]:
        print("reached C*", file=out)
    return 0


def _run_batch(parser, args, out, ctx: ExecutionContext) -> int:
    profile = _DEMO_ALGORITHMS[args.algorithm]
    gathering = profile["gathering"]
    try:
        spec = BatchSweepSpec(
            algorithm=args.algorithm,
            n=args.n,
            k=args.k,
            steps=args.steps,
            seeds=args.seeds,
            scheduler=args.scheduler,
            stop=profile["stop"],
            engine=EngineOptions(
                exclusive=not gathering,
                multiplicity_detection=gathering,
            ),
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = execute(spec, ctx)
    payload = result.payload
    rows = []
    for seed, run in zip(payload["seeds"], payload["runs"]):
        outcome = "collision" if run["had_collision"] else run["stopped_reason"]
        if run["reached_c_star"]:
            outcome += ", C*"
        if gathering and run["gathered"]:
            outcome += ", gathered"
        rows.append(
            (seed, run["steps_executed"], run["total_moves"], outcome, run["final_art"])
        )
    print(
        render_table(("seed", "steps", "moves", "outcome", "final"), rows),
        file=out,
    )
    print(
        f"{payload['num_runs']} runs of {payload['algorithm']} on "
        f"(k={payload['k']}, n={payload['n']})"
        + (" [cached]" if result.cached else ""),
        file=out,
    )
    return 0 if payload["passed"] else 1


def _run_verify(parser, args, out, ctx: ExecutionContext) -> int:
    ks, ns = args.k, args.n
    cells = [(k, n) for n in ns for k in ks if 1 <= k <= n and n >= 3]
    skipped = [(k, n) for n in ns for k in ks if not (1 <= k <= n and n >= 3)]
    if not cells:
        print("verify: no valid (k, n) cells in the requested grid", file=sys.stderr)
        return 2
    try:
        spec = VerifySpec(
            task=args.task,
            cells=tuple(cells),
            adversary=args.adversary,
            max_states=args.max_states,
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = execute(spec, ctx)
    payload = result.payload
    header = (
        "task", "k", "n", "algorithm", "adversary", "verdict",
        "states", "transitions", "witness",
    )
    print(render_table(header, [tuple(row) for row in payload["rows"]]), file=out)
    if skipped:
        print(f"note: skipped invalid cells {skipped}", file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"task": args.task, "adversary": args.adversary, "cells": payload["cells"]},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"verdicts written to {args.json}", file=out)
    return 0 if payload["passed"] else 1


#: Exit code of a command killed by its ``--timeout`` deadline (the
#: same convention as coreutils ``timeout(1)``).
TIMEOUT_EXIT_CODE = 124


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    A run killed by its ``--timeout`` deadline exits with
    :data:`TIMEOUT_EXIT_CODE` (124, the ``timeout(1)`` convention) after
    printing the deadline error to stderr.
    """
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args, out)
    except DeadlineExceeded as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return TIMEOUT_EXIT_CODE


def _dispatch(parser: argparse.ArgumentParser, args, out) -> int:
    if args.command == "census":
        return _run_census(args.n, args.k, out)
    if args.command == "feasibility":
        return _run_feasibility(args.max_n, args.task, out)
    ctx = _build_context(parser, args)
    if args.command == "experiment":
        return _run_experiment(args.name, args.full, out, ctx)
    if args.command == "all":
        return _run_all(out, ctx)
    if args.command == "demo":
        return _run_demo(parser, args, out, ctx)
    if args.command == "batch":
        return _run_batch(parser, args, out, ctx)
    if args.command == "verify":
        return _run_verify(parser, args, out, ctx)
    if args.command == "serve":
        from .service import serve

        return serve(
            args.host,
            args.port,
            ctx=ctx,
            workers=args.workers,
            verbose=args.verbose,
            log_json=args.json_logs,
        )
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
