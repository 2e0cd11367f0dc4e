#!/usr/bin/env python3
"""Outside-in benchmark of the ``repro`` program.

Drives the shipped program as a user does: fresh ``python -m repro``
processes and a ``repro serve`` child called over HTTP.  Run from the
root of a checkout::

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload service-mixed --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-check        # every workload, tiny size, ~1 min

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``verify-cold``: cold ``repro verify`` processes over two grids, each
  followed by its cached rerun;
- ``service-mixed``: two closed-loop clients against ``repro serve``;
- ``experiments-all``: cold ``repro all --jobs 2`` plus its cached rerun.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(spans recorded by ``hook/`` in every program process, including
campaign workers and the server child).  Everything a run writes (fresh
cache dirs, program output, ``result.json`` with provenance, the Chrome
trace ``trace.json``) goes to ``.perfbench/<workload>-s<seed>-t<trace>/``.

End-to-end metric definitions.  An *operation* is a program process for
the CLI workloads and an HTTP request (submit to settled) for the
service; a *round* is the workload's command set (CLI) or a 20-request
two-client session (service).

- ``setup_s``: median set-up time; a cold ``repro --help`` process (CLI)
  or spawn to ready, health wait and verify warm-up included (service);
- ``wall_s``: median round wall time, cold processes only for the CLI;
- ``latency_p50_s`` / ``latency_p99_s``: median and tail operation
  latency.  Service: the tail is p99 with at least 1000 requests, else
  the highest percentile with ten samples beyond it (``result.json``
  names it).  CLI (cold processes only): a round has too few processes
  for a percentile, so the tail is the median over rounds of the round's
  slowest process;
- ``hit_p50_s`` / ``miss_p50_s``: median latency of cache hits (cached
  reruns; cached POSTs) and cache misses (cold processes; executing
  POSTs);
- ``throughput_rps``: operations per second of operation time;
- ``peak_rss_mb``: largest resident set of the program's processes.

Per-layer metrics are per round (CLI) or per request (service), except
``cli.import_s`` (median per process), ratios, ``*.depth_max``,
``service.queue.wait_s`` (median per queued run) and the HTTP split
``service.http.handle_s``/``wire_s`` (median per request).
``predictions.json`` records which end-to-end metric each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

import common

BENCHMARK_FILE = os.path.join(common.ROOT, "BENCHMARK.json")


def _benchmark():
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _log(message):
    print(message, file=sys.stderr, flush=True)


def measure(workload, seed, seconds, trace, size):
    """Run one workload; returns the document the last output line holds."""
    import cli_workloads
    import service_workload

    runner = {
        "verify-cold": cli_workloads.run,
        "experiments-all": cli_workloads.run,
        "service-mixed": service_workload.run,
    }[workload]
    workdir = common.make_workdir(f"{workload}-s{seed}-t{trace}")
    started = time.perf_counter()
    result = runner(workload, seed, seconds, trace, size, workdir, _log)
    benchmark = _benchmark()
    declared = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    measured = result["per_layer"] if trace else result["end_to_end"]
    metrics = {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    document = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    full = dict(document, workload=workload, seed=seed, seconds=seconds, trace=trace,
                size=size, elapsed_s=time.perf_counter() - started, info=result["info"])
    if not trace:
        full["error_rate"] = result["failed"] / result["attempted"]
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=2, sort_keys=True)
    # Keep outputs, results and the merged trace; drop caches and span files.
    for entry in os.listdir(workdir):
        if entry.startswith(("cache", "trace-", "tmp")) or entry == "trace":
            shutil.rmtree(os.path.join(workdir, entry), ignore_errors=True)
    return document


def self_check():
    """Run every workload tiny, traced and not, and check the output."""
    benchmark = _benchmark()
    problems = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            document = json.loads(lines[-1])
            declared = benchmark["per_layer"] if trace else benchmark["end_to_end"]
            expected = {entry["name"]: entry["unit"] for entry in declared}
            if set(document) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(document)}")
            if document.get("correct") is not True or document.get("failed") != 0:
                problems.append(f"{label}: incorrect: {done.stderr[-2000:]}")
            if not isinstance(document.get("attempted"), int) or document["attempted"] < 1:
                problems.append(f"{label}: attempted {document.get('attempted')!r}")
            metrics = document.get("metrics", {})
            if set(metrics) != set(expected):
                problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
            for name, metric in metrics.items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} = {value!r}")
                if metric.get("unit") != expected.get(name):
                    problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
                if not trace and value <= 0:
                    problems.append(f"{label}: end-to-end {name} is {value!r}")
            _log(f"self-check: {label}: attempted {document.get('attempted')}")
    for problem in problems:
        _log("self-check FAILED: " + problem)
    _log("self-check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def record_reference():
    """Rewrite ``reference.json`` from the current program's verdicts."""
    import cli_workloads

    workdir = common.make_workdir("reference")
    reference = {"verify": {}}
    for grids in cli_workloads.VERIFY_GRIDS.values():
        for task, ks, ns in grids:
            done = common.run(["verify", task, "--k", ks, "--n", ns], workdir, task + ks + ns)
            if done.code != 0:
                raise common.BenchError(f"verify {task} failed: {done.stderr}")
            digest, rows = cli_workloads.verify_rows_digest(done.stdout)
            reference["verify"][cli_workloads.grid_key(task, ks, ns)] = {
                "digest": digest, "rows": rows,
            }
    with open(os.path.join(common.BENCH_DIR, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["verify-cold", "service-mixed", "experiments-all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the self-check's small inputs")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size and validate the output")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the verify verdict digests (reference.json)")
    args = parser.parse_args()
    try:
        common.require_program()
        if args.self_check:
            return self_check()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        document = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except common.BenchError as exc:
        _log(f"perfbench: {exc}")
        return 2
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
