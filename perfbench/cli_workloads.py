"""The two CLI workloads: cold ``repro verify`` grids and ``repro all``.

A *round* runs each of the workload's commands once as a fresh process
on a fresh, empty result-cache directory (a cold run: every lookup
misses), then reruns it :data:`HIT_REPEATS` times on the same
directory (whole-run cache hits, whose cost is start-up and import).
The seed orders the commands inside each round.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

import common

#: Grids of ``verify-cold`` (task, robot counts, ring sizes).
VERIFY_GRIDS = {
    "full": [("gathering", "3-7", "10-15"), ("searching", "3-7", "8-16")],
    "tiny": [("gathering", "3-4", "7-8"), ("searching", "3-4", "8-9")],
}

#: Commands of ``experiments-all`` and the number of PASS lines each prints.
EXPERIMENT_COMMANDS = {
    "full": [(("all", "--jobs", "2"), 8)],
    "tiny": [(("experiment", "e1", "--jobs", "2"), 1)],
}

#: Cached reruns per cold process, and cold ``repro --help`` set-up
#: samples per run: both are short, noisy processes, so a run takes many.
HIT_REPEATS = 3
SETUP_SAMPLES = 21

#: Worker processes the campaign layer may use in each workload.
JOBS = {"verify-cold": 1, "experiments-all": 2}


def _reference():
    with open(os.path.join(common.BENCH_DIR, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def verify_rows_digest(stdout):
    """SHA-256 of the verdict rows ``(task, k, n, verdict, states,
    transitions)`` of a ``repro verify`` table, plus the row count."""
    rows = []
    for line in stdout.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) < 8 or not cells[1].isdigit():
            continue
        task, k, n, _algorithm, _adversary, verdict, states, transitions = cells[:8]
        rows.append([task, int(k), int(n), verdict, states, transitions])
    material = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest(), len(rows)


def grid_key(task, ks, ns):
    return f"{task} --k {ks} --n {ns}"


def _commands(workload, size):
    """``(label, argv, checker)`` for every command of one round."""
    commands = []
    if workload == "verify-cold":
        reference = _reference()
        for task, ks, ns in VERIFY_GRIDS[size]:
            key = grid_key(task, ks, ns)
            expected = reference["verify"][key]

            def check(done, expected=expected):
                digest, count = verify_rows_digest(done.stdout)
                return done.code == 0 and (digest, count) == (expected["digest"], expected["rows"])

            commands.append((key, ["verify", task, "--k", ks, "--n", ns], check))
    else:
        for argv, passes in EXPERIMENT_COMMANDS[size]:

            def check(done, passes=passes):
                return done.code == 0 and done.stdout.count("result: PASS") == passes

            commands.append((" ".join(argv), list(argv), check))
    return commands


def run(workload, seed, seconds, trace, size, workdir, log):
    """Measure one CLI workload; returns the run's result document."""
    rng = random.Random(seed)
    commands = _commands(workload, size)
    common.compile_sources(workdir)
    info = {"provenance": common.provenance(workdir)}

    # Set-up: a cold `repro --help` is the program's start-up cost.
    common.run(["--help"], workdir, "help-warm")
    setups = [common.run(["--help"], workdir, f"help-{i}").wall_s for i in range(SETUP_SAMPLES)]

    rounds = []  # each: {"traced", "cold": [Finished], "hit": [Finished], "trace_dir"}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        index = len(rounds)
        traced = bool(trace) and index % 2 == 1
        trace_dir = os.path.join(workdir, f"trace-{index}") if traced else None
        order = list(commands)
        rng.shuffle(order)
        record = {"traced": traced, "cold": [], "hit": [], "trace_dir": trace_dir}
        for position, (label, argv, check) in enumerate(order):
            cache = os.path.join(workdir, f"cache-{index}-{position}")
            name = f"r{index}-{position}"
            cold = common.run(argv + ["--cache", cache], workdir, name + "-cold", trace_dir)
            attempted += 1
            if not check(cold):
                failed += 1
                log(f"{workload}: cold `{label}` failed its check (exit {cold.code})")
            record["cold"].append(cold)
            for repeat in range(HIT_REPEATS):
                hit = common.run(
                    argv + ["--cache", cache], workdir, f"{name}-hit{repeat}", trace_dir
                )
                attempted += 1
                if not (hit.code == 0 and hit.stdout == cold.stdout):
                    failed += 1
                    log(f"{workload}: cached rerun of `{label}` differs (exit {hit.code})")
                record["hit"].append(hit)
        rounds.append(record)
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(rounds)
        need_traced = bool(trace) and not any(r["traced"] for r in rounds)
        if elapsed + per_round > seconds and not need_traced:
            break

    untraced = [r for r in rounds if not r["traced"]]
    colds = [p for r in untraced for p in r["cold"]]
    hits = [p for r in untraced for p in r["hit"]]
    every = colds + hits
    walls = [sum(p.wall_s for p in r["cold"]) for r in untraced]
    end_to_end = {
        "setup_s": common.median(setups),
        "wall_s": common.median(walls),
        "latency_p50_s": common.median([p.wall_s for p in colds]),
        # Too few processes for a percentile: the tail is the round's
        # slowest process, median over rounds.
        "latency_p99_s": common.median([max(p.wall_s for p in r["cold"]) for r in untraced]),
        "hit_p50_s": common.median([p.wall_s for p in hits]),
        "miss_p50_s": common.median([p.wall_s for p in colds]),
        "throughput_rps": len(every) / sum(p.wall_s for p in every),
        "peak_rss_mb": max(p.maxrss_mb for p in every),
    }
    info.update(
        rounds=len(rounds),
        untraced_rounds=len(untraced),
        processes=len(every),
        latency_tail_percentile="median over rounds of the slowest process",
        setup_samples=setups,
        round_walls=walls,
    )

    per_layer = None
    if trace:
        traced = [r for r in rounds if r["traced"]]
        totals = common.TraceTotals()
        for r in traced:
            totals.add(common.load_trace(r["trace_dir"]))
        traced_walls = [sum(p.wall_s for p in r["cold"]) for r in traced]
        per_layer, trace_info = common.trace_report(
            totals, len(traced), JOBS[workload],
            common.median(traced_walls) - common.median(walls),
            workdir, {"workload": workload, "seed": seed},
        )
        info.update(trace_info, traced_rounds=len(traced))
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
    }
