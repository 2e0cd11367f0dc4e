"""The ``service-mixed`` workload: a ``repro serve`` child over HTTP.

Load is a closed loop of two clients (one keep-alive connection each).
Work comes in *rounds* of :data:`ROUND_MIX` operations shuffled by the
seed; the clients split a round and meet at its end, so a round's wall
time is the time two users need for a fixed session.  A run settles
when its terminal event arrives on ``/v1/runs/<id>/events``; nothing
sleeps or polls.

Operations:

- ``hit``: POST a simulate spec whose result a direct execution stored
  in the server's cache dir during set-up (answered ``200 done``);
- ``miss``: POST a distinct, never-seen simulate spec (executes, then
  cache put, queue journal and events);
- ``verify``: POST a one-cell verify spec on a cell whose plan caches
  the server warmed during set-up, with a ``max_states`` no request has
  used (a new run id, so the model checker runs, warm);
- ``status``: GET a finished run; ``metrics``: GET ``/v1/metrics``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import common

#: Operations of one round (shuffled per round by the seed).
ROUND_MIX = {"hit": 8, "miss": 6, "verify": 3, "status": 2, "metrics": 1}

#: Cells the server warms in set-up; verify requests draw from them.
VERIFY_CELLS = {
    "full": [
        ("searching", 5, 11), ("searching", 6, 11), ("searching", 7, 11),
        ("searching", 5, 12), ("searching", 6, 12), ("searching", 7, 12),
        ("searching", 5, 13), ("searching", 6, 13), ("searching", 7, 13),
        ("searching", 8, 13), ("gathering", 5, 14), ("gathering", 6, 14),
        ("gathering", 7, 14), ("gathering", 5, 16),
    ],
    "tiny": [("searching", 6, 10), ("gathering", 4, 12)],
}
#: Size of the pre-cached simulate pool that ``hit`` requests re-POST.
HIT_POOL = {"full": 128, "tiny": 8}
#: Set-up repetitions (the reported ``setup_s`` is their median).
SETUPS = {"full": 5, "tiny": 2}
#: ``max_states`` of verify requests: above every warm cell's state count,
#: distinct per request within one server's cache, so each is a new run.
WARM_MAX_STATES = 200_000
LOAD_MAX_STATES = 300_000
SIMULATE_SHAPES = ((10, 4), (11, 4), (11, 5), (12, 4), (12, 5))
SETTLED = ("done", "error", "cancelled")
CLIENTS = 2


def simulate_spec(rng, used):
    n, k = rng.choice(SIMULATE_SHAPES)
    while True:
        seed = rng.randrange(1, 10**9)
        if seed not in used:
            used.add(seed)
            break
    return {"kind": "simulate", "algorithm": "align", "n": n, "k": k,
            "steps": 200, "seed": seed, "stop": "c_star"}


def verify_spec(cell, max_states):
    task, k, n = cell
    return {"kind": "verify", "task": task, "cells": [[k, n]], "max_states": max_states}


class Client:
    """One user: a keep-alive connection plus SSE streams per run."""

    def __init__(self, port):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method, path, op, body=None):
        headers = {"X-Bench-Op": op}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def settle(self, run_id, op):
        """Follow the run's event stream to its terminal status."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("GET", f"/v1/runs/{run_id}/events", headers={"X-Bench-Op": op})
            response = conn.getresponse()
            if response.status != 200:
                return None
            event = None
            while True:
                line = response.readline()
                if not line:
                    return None
                line = line.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: ") and event == "status":
                    status = json.loads(line[len("data: "):]).get("status")
                    if status in SETTLED:
                        return status
        finally:
            conn.close()

    def close(self):
        self.conn.close()


class Server:
    """A ``repro serve --port 0`` child process."""

    def __init__(self, workdir, cache, name, trace_dir=None):
        self.proc = common.spawn(
            ["serve", "--port", "0", "--cache", cache, "--workers", "2"],
            workdir, name, trace_dir,
        )
        self.out_path = os.path.join(workdir, name + ".out")
        self.port = None

    def wait_ready(self, timeout=60.0):
        """Parse the bound port from the banner, then wait for health."""
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise common.BenchError("repro serve did not start")
            with open(self.out_path, encoding="utf-8", errors="replace") as handle:
                match = pattern.search(handle.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        client = Client(self.port)
        try:
            status, body = client.request("GET", "/v1/health", "setup")
            if status != 200 or json.loads(body)["status"] != "ok":
                raise common.BenchError(f"repro serve unhealthy: {status} {body!r}")
        finally:
            client.close()

    def stop(self):
        """SIGTERM (graceful drain) and reap; returns the process outcome."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return common.reap(self.proc, timeout=60.0)


def warm_verify(port, cells, max_states):
    """POST every warm cell once and follow each to its terminal status."""
    client = Client(port)
    try:
        for index, cell in enumerate(cells):
            status, body = client.request(
                "POST", "/v1/runs", f"warm-{index}", verify_spec(cell, max_states)
            )
            view = json.loads(body)
            if status not in (200, 202):
                raise common.BenchError(f"warm-up POST failed: {status} {body!r}")
            if view["status"] not in SETTLED and client.settle(view["run_id"], "warm") != "done":
                raise common.BenchError(f"warm-up verify of {cell} did not finish")
    finally:
        client.close()


def start_server(workdir, cache, name, cells, max_states, trace_dir=None):
    """Spawn, wait for health, warm the verify cells; returns (server, seconds)."""
    started = time.perf_counter()
    server = Server(workdir, cache, name, trace_dir)
    try:
        server.wait_ready()
        warm_verify(server.port, cells, max_states)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def direct(workdir, specs, name, cache=None):
    """Execute ``specs`` in a program process without the service."""
    spec_path = os.path.join(workdir, name + "-specs.json")
    out_path = os.path.join(workdir, name + "-out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(specs, handle)
    argv = [sys.executable, os.path.join(common.BENCH_DIR, "direct.py"), spec_path, out_path]
    if cache is not None:
        argv += ["--cache", cache]
    subprocess.run(argv, env=common.child_env(workdir), cwd=workdir, check=True,
                   stdout=subprocess.DEVNULL, timeout=170)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


class Load:
    """Generates rounds and runs them against one server."""

    def __init__(self, rng, hit_pool, cells, used_seeds, max_states_base):
        self.rng = rng
        self.hit_pool = hit_pool
        self.cells = cells
        self.used_seeds = used_seeds
        self.next_max_states = max_states_base
        self.ops = []  # every operation of the finished rounds, in round order
        self.round_walls = []
        self.done_ids = []

    def round_ops(self, index):
        kinds = [kind for kind, count in ROUND_MIX.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        ops = []
        for position, kind in enumerate(kinds):
            op = {"id": f"{index}-{position}", "kind": kind, "spec": None}
            if kind == "hit":
                op["spec"] = self.rng.choice(self.hit_pool)
            elif kind == "miss":
                op["spec"] = simulate_spec(self.rng, self.used_seeds)
            elif kind == "verify":
                op["spec"] = verify_spec(self.rng.choice(self.cells), self.next_max_states)
                self.next_max_states += 1
            ops.append(op)
        return ops

    def execute(self, client, op, lock):
        started = time.perf_counter()
        ok, run_id = self._execute(client, op, lock)
        op["latency_s"] = time.perf_counter() - started
        op["ok"] = ok
        op["run_id"] = run_id
        if ok and run_id is not None:
            with lock:
                self.done_ids.append(run_id)

    def _execute(self, client, op, lock):
        kind = op["kind"]
        if kind == "metrics":
            status, body = client.request("GET", "/v1/metrics", op["id"])
            return status == 200 and b"repro_runs_total" in body, None
        if kind == "status":
            with lock:
                run_id = self.done_ids[-1] if self.done_ids else None
            if run_id is None:
                status, body = client.request("GET", "/v1/health", op["id"])
                return status == 200, None
            status, body = client.request("GET", f"/v1/runs/{run_id}", op["id"])
            return status == 200 and json.loads(body)["status"] == "done", None
        status, body = client.request("POST", "/v1/runs", op["id"], op["spec"])
        view = json.loads(body)
        if kind == "hit":
            return status == 200 and view["status"] == "done" and view["cached"], view["run_id"]
        if status != 202:
            return False, view.get("run_id")
        return client.settle(view["run_id"], op["id"]) == "done", view["run_id"]

    def run(self, port, seconds, log):
        clients = [Client(port) for _ in range(CLIENTS)]
        lock = threading.Lock()
        errors = []

        def drive(client, ops):
            try:
                for op in ops:
                    self.execute(client, op, lock)
            except Exception as exc:  # noqa: BLE001 - counted as failures below
                errors.append(repr(exc))

        started = time.perf_counter()
        try:
            index = 0
            while True:
                ops = self.round_ops(index)
                threads = [
                    threading.Thread(target=drive, args=(clients[c], ops[c::CLIENTS]))
                    for c in range(CLIENTS)
                ]
                round_started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                self.round_walls.append(time.perf_counter() - round_started)
                self.ops.extend(ops)
                index += 1
                if errors or time.perf_counter() - started >= seconds:
                    break
        finally:
            for client in clients:
                client.close()
        for error in errors:
            log(f"service-mixed: client error {error}")


def _executed_total(port):
    client = Client(port)
    try:
        status, body = client.request("GET", "/v1/metrics", "check")
    finally:
        client.close()
    match = re.search(rb"^repro_runs_executed_total (\S+)$", body, re.MULTILINE)
    depth = re.search(rb"^repro_queue_depth (\S+)$", body, re.MULTILINE)
    return (
        float(match.group(1)) if match else None,
        float(depth.group(1)) if depth else None,
    )


def _served(port, run_id):
    client = Client(port)
    try:
        status, body = client.request("GET", f"/v1/runs/{run_id}", "check")
    finally:
        client.close()
    return json.loads(body) if status == 200 else None


def _phase(workdir, cache, name, cells, rng, hit_pool, used, seconds, log, trace_dir, setups):
    """Set up ``setups`` servers (keeping the last), load it, check it."""
    setup_times = []
    server = None
    for index in range(setups):
        if server is not None:
            server.stop()
        server, elapsed = start_server(
            workdir, cache, f"{name}-serve-{index}", cells, WARM_MAX_STATES + index,
            trace_dir if index == setups - 1 else None,
        )
        setup_times.append(elapsed)
    load = Load(rng, hit_pool, cells, used, LOAD_MAX_STATES)
    checks = failed_checks = 0
    try:
        load.run(server.port, seconds, log)
        # Every terminal event is published after the server counted the
        # execution, so once all clients have settled the count is final.
        executed, depth = _executed_total(server.port)
        expected = len(cells) + sum(1 for op in load.ops if op["kind"] in ("miss", "verify"))
        checks += 2
        if executed != expected:
            failed_checks += 1
            log(f"service-mixed: {executed} executions, expected {expected}")
        if depth != 0:
            failed_checks += 1
            log(f"service-mixed: queue depth {depth} after the load")
        # A sample of served payloads must equal direct execution.
        posted = [op for op in load.ops if op["spec"] is not None and op.get("ok")]
        sample = rng.sample(posted, min(6, len(posted)))
        if sample:
            reference = direct(workdir, [op["spec"] for op in sample], f"{name}-direct")
            for op, ref in zip(sample, reference):
                checks += 1
                view = _served(server.port, op["run_id"])
                same = (
                    view is not None
                    and ref["run_id"] == op["run_id"]
                    and json.dumps(view.get("result"), sort_keys=True)
                    == json.dumps(ref["payload"], sort_keys=True)
                )
                if not same:
                    failed_checks += 1
                    log(f"service-mixed: served payload of {op['kind']} op differs")
    finally:
        finished = server.stop()
    checks += 1
    if finished.code != 0:
        failed_checks += 1
        log(f"service-mixed: server exited with {finished.code}")
    failed_ops = sum(1 for op in load.ops if not op.get("ok"))
    return {
        "setup_times": setup_times,
        "load": load,
        "server": finished,
        "attempted": len(load.ops) + checks,
        "failed": failed_ops + failed_checks,
    }


def run(workload, seed, seconds, trace, size, workdir, log):
    """Measure ``service-mixed``; returns the run's result document."""
    rng = random.Random(seed)
    cells = VERIFY_CELLS[size]
    common.compile_sources(workdir)
    info = {"provenance": common.provenance(workdir)}
    used = set()
    hit_pool = [simulate_spec(rng, used) for _ in range(HIT_POOL[size])]

    def fresh_cache(label):
        cache = os.path.join(workdir, label)
        direct(workdir, hit_pool, label + "-warm", cache=cache)
        return cache

    phases = []
    if trace:
        # Untraced then traced server, half the time each: the difference
        # of their round times is the tracing overhead.
        for label, trace_dir in (("plain", None), ("traced", os.path.join(workdir, "trace"))):
            phases.append(_phase(
                workdir, fresh_cache(f"cache-{label}"), label, cells, rng, hit_pool, used,
                seconds / 2.0, log, trace_dir, 1,
            ))
    else:
        phases.append(_phase(
            workdir, fresh_cache("cache"), "load", cells, rng, hit_pool, used, seconds, log,
            None, SETUPS[size],
        ))

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    main = phases[0]
    # Operations a client error cut off have no latency; they count as failed.
    ops = [op for op in main["load"].ops if "latency_s" in op]
    latencies = [op["latency_s"] for op in ops]
    hits = [op["latency_s"] for op in ops if op["kind"] == "hit"]
    misses = [op["latency_s"] for op in ops if op["kind"] in ("miss", "verify")]
    tail, tail_label = common.tail(latencies)
    walls = main["load"].round_walls
    end_to_end = {
        "setup_s": common.median(main["setup_times"]),
        "wall_s": common.median(walls),
        "latency_p50_s": common.median(latencies),
        "latency_p99_s": tail,
        "hit_p50_s": common.median(hits),
        "miss_p50_s": common.median(misses),
        "throughput_rps": len(ops) / sum(walls),
        "peak_rss_mb": main["server"].maxrss_mb,
    }
    info.update(
        requests=len(ops),
        rounds=len(walls),
        latency_tail_percentile=tail_label,
        setup_samples=main["setup_times"],
    )

    per_layer = None
    if trace:
        traced = phases[1]
        totals = common.TraceTotals()
        totals.add(common.load_trace(os.path.join(workdir, "trace")))
        traced_ops = [op for op in traced["load"].ops if "latency_s" in op]
        per_layer, trace_info = common.trace_report(
            totals, len(traced_ops), 1,
            common.median(traced["load"].round_walls) - common.median(walls),
            workdir, {"workload": workload, "seed": seed},
        )
        handled = {}
        for op_id, ns in totals.samples.get("service.http.handle", []):
            handled[op_id] = handled.get(op_id, 0.0) + ns / 1e9
        handle = [handled.get(op["id"], 0.0) for op in traced_ops]
        per_layer["service.http.handle_s"] = common.median(handle)
        per_layer["service.http.wire_s"] = common.median(
            [op["latency_s"] - h for op, h in zip(traced_ops, handle)]
        )
        info.update(trace_info, traced_requests=len(traced_ops))
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
    }
