"""Shared plumbing: checkout paths, child environments, process timing,
statistics and trace aggregation."""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
HOOK_DIR = os.path.join(BENCH_DIR, "hook")
#: Scratch space for every run (fresh caches, outputs, traces); ignored by git.
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Environment variables that would change what the program does.
SCRUBBED_VARS = ("REPRO_RUN_CACHE", "REPRO_MODELCHECK_ENGINE", "REPRO_BATCHSIM_BACKEND")
SCRUBBED_PREFIXES = ("REPRO_FAULT_", "PERFBENCH_")


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed operation)."""


def require_program():
    """Fail fast in a directory without the program's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"program sources not found under {SRC}")


def make_workdir(label):
    """A fresh directory under :data:`WORK_ROOT` for one run."""
    path = os.path.join(WORK_ROOT, label)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))
    return path


def child_env(workdir, trace_dir=None):
    """The environment of a program process: scrubbed, sources on the path,
    temporary files inside the run's work directory."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in SCRUBBED_VARS and not key.startswith(SCRUBBED_PREFIXES)
    }
    env["PYTHONPATH"] = SRC if trace_dir is None else HOOK_DIR + os.pathsep + SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


def compile_sources(workdir):
    """Byte-compile the sources once, so no timed process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC],
        env=child_env(workdir), check=True, stdout=subprocess.DEVNULL,
    )


class Finished:
    """Outcome of one program process."""

    def __init__(self, code, wall_s, maxrss_mb, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def spawn(args, workdir, name, trace_dir=None):
    """Start ``python -m repro ARGS`` with output captured to files."""
    argv = [sys.executable, "-m", "repro", *args]
    out = open(os.path.join(workdir, name + ".out"), "wb")
    err = open(os.path.join(workdir, name + ".err"), "wb")
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=child_env(workdir, trace_dir), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
    finally:
        out.close()
        err.close()
    proc.perfbench_started = started
    proc.perfbench_name = name
    proc.perfbench_workdir = workdir
    return proc


def reap(proc, timeout=170.0):
    """Wait for ``proc`` (killing it after ``timeout``) and collect its
    exit code, wall time, peak RSS (``wait4``) and output."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.perf_counter() - proc.perfbench_started
    proc.returncode = os.waitstatus_to_exitcode(status)
    base = os.path.join(proc.perfbench_workdir, proc.perfbench_name)
    with open(base + ".out", "rb") as handle:
        stdout = handle.read().decode("utf-8", "replace")
    with open(base + ".err", "rb") as handle:
        stderr = handle.read().decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux; it covers the process and the
    # children it waited for (campaign workers).
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def run(args, workdir, name, trace_dir=None, timeout=170.0):
    """Run ``python -m repro ARGS`` to completion."""
    return reap(spawn(args, workdir, name, trace_dir), timeout)


def provenance(workdir):
    """What the program resolves to in the child environment."""
    probe = (
        "import json, os, platform\n"
        "from repro.modelcheck.engines import resolve_engine\n"
        "from repro.batchsim.backends import resolve_backend\n"
        "try:\n"
        "    import numpy; np_version = numpy.__version__\n"
        "except ImportError:\n"
        "    np_version = None\n"
        "print(json.dumps({'modelcheck_engine': resolve_engine('auto'),\n"
        "    'batchsim_backend': resolve_backend(None), 'python': platform.python_version(),\n"
        "    'numpy': np_version, 'nproc': os.cpu_count()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(workdir), cwd=workdir,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """p99 with >= 1000 samples, else the highest percentile with at least
    ten samples beyond it.  Returns ``(value, label)``."""
    ordered = sorted(values)
    n = len(ordered)
    index = int(0.99 * n) if n >= 1000 else max(0, n - 11)
    return ordered[index], f"p{100.0 * (index + 1) / n:.1f}"


# ---------------------------------------------------------------------- #
# traces
# ---------------------------------------------------------------------- #
def load_trace(trace_dir):
    """The per-process span documents written under ``trace_dir``."""
    documents = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


class TraceTotals:
    """Span aggregates summed over every process of one or more traces."""

    def __init__(self):
        self.calls = {}
        self.total_s = {}
        self.descendant_s = {}
        self.counters = {}
        self.maxima = {}
        self.samples = {}
        self.import_s = []
        self.events = []
        self.dropped_events = 0
        self.processes = 0

    def add(self, documents):
        for doc in documents:
            self.processes += 1
            if doc.get("import_ns") is not None:
                self.import_s.append(doc["import_ns"] / 1e9)
            for name, agg in doc["aggregates"].items():
                self.calls[name] = self.calls.get(name, 0) + agg["calls"]
                self.total_s[name] = self.total_s.get(name, 0.0) + agg["total_ns"] / 1e9
                desc = self.descendant_s.setdefault(name, {})
                for child, ns in agg["descendants"].items():
                    desc[child] = desc.get(child, 0.0) + ns / 1e9
            for name, value in doc["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in doc["maxima"].items():
                self.maxima[name] = max(self.maxima.get(name, value), value)
            for name, values in doc["samples"].items():
                self.samples.setdefault(name, []).extend(values)
            self.events.extend(doc["events"])
            self.dropped_events += doc["dropped_events"]

    def seconds(self, name):
        return self.total_s.get(name, 0.0)

    def within(self, parent, child):
        return self.descendant_s.get(parent, {}).get(child, 0.0)

    def count(self, name):
        return self.counters.get(name, 0)


def trace_report(totals, per, jobs, overhead_s, workdir, metadata):
    """Per-layer metrics plus the Chrome trace-event JSON of a traced run
    (load ``trace.json`` in chrome://tracing or Perfetto).  Returns
    ``(per_layer, info)``."""
    per_layer = layer_metrics(totals, per, jobs)
    per_layer["trace.overhead_s"] = overhead_s
    path = os.path.join(workdir, "trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "traceEvents": sorted(totals.events, key=lambda e: e["ts"]),
                "displayTimeUnit": "ms",
                "otherData": dict(metadata, dropped_events=totals.dropped_events),
            },
            handle,
        )
    info = {"trace_file": os.path.relpath(path, ROOT), "traced_processes": totals.processes}
    return per_layer, info


def layer_metrics(totals, per, jobs):
    """Per-layer metric values from trace totals.

    Times and counts are divided by ``per`` (the number of operations the
    traced phase completed: rounds for CLI workloads, requests for the
    service), so runs of different length compare.
    """
    per = max(per, 1)
    t = totals.seconds
    run_s = t("modelcheck.run")
    engine_self = run_s - totals.within(
        "modelcheck.run", "simulator.branching.successors_compact"
    ) - totals.within("modelcheck.run", "analysis.enumeration.iter_configurations")
    campaign_wall = t("campaign.run_campaign")
    hits, misses = totals.count("runs.cache.hits"), totals.count("runs.cache.misses")
    waits = [ns / 1e9 for ns in totals.samples.get("service.queue.wait", [])]
    values = {
        "cli.import_s": median(totals.import_s),
        "runs.execute_s": t("runs.execute") / per,
        "runs.cache.get_s": t("runs.cache.get") / per,
        "runs.cache.put_s": t("runs.cache.put") / per,
        "runs.cache.hits": hits / per,
        "runs.cache.misses": misses / per,
        "runs.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "campaign.run_campaign_s": campaign_wall / per,
        "campaign.units": totals.count("campaign.units") / per,
        "campaign.unit_s": t("campaign.unit") / per,
        "campaign.parallel_efficiency": (
            t("campaign.unit") / (jobs * campaign_wall) if campaign_wall else 0.0
        ),
        "modelcheck.run_s": run_s / per,
        "modelcheck.engine_self_s": engine_self / per,
        "modelcheck.cells": totals.count("modelcheck.cells") / per,
        "modelcheck.states": totals.count("modelcheck.states") / per,
        "modelcheck.transitions": totals.count("modelcheck.transitions") / per,
        "modelcheck.vector_fallback_cells": totals.count("modelcheck.vector_fallback_cells") / per,
        "simulator.engine.run_s": t("simulator.engine.run") / per,
        "batchsim.run_s": t("batchsim.run") / per,
        "batchsim.lanes": totals.count("batchsim.lanes") / per,
        "analysis.game.solve_s": t("analysis.game.solve") / per,
        "analysis.game.candidates": totals.count("analysis.game.candidates") / per,
        "analysis.enumeration.iter_configurations_s": (
            t("analysis.enumeration.iter_configurations") / per
        ),
        # Per-request medians; the service workload pairs them with its
        # client latencies.  No HTTP happens in the CLI workloads.
        "service.http.handle_s": 0.0,
        "service.http.wire_s": 0.0,
        "service.submit_s": t("service.submit") / per,
        "service.queue.wait_s": median(waits),
        "service.queue.depth_max": totals.maxima.get("service.queue.depth_max", 0),
        "service.metrics.render_s": t("service.metrics.render") / per,
        "service.events.published": totals.count("service.events.published") / per,
    }
    for name in (
        "simulator.branching.successors_compact",
        "modelcheck.vector.canonical_many",
        "modelcheck.vector.advance_clear_many",
    ):
        values[name + "_s"] = t(name) / per
        values[name + "_calls"] = totals.calls.get(name, 0) / per
    for index in range(1, 9):
        values[f"experiments.e{index}_s"] = t(f"experiments.e{index}") / per
    return values
