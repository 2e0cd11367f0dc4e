#!/usr/bin/env python
"""Load-test harness for the ``repro serve`` service tier.

Boots an in-process :func:`repro.service.create_server` on an ephemeral
port (temp result cache, real HTTP over loopback) and drives it with
``--clients`` threads submitting a mixed workload: a ``--cached-ratio``
fraction of the requests re-POST specs that were warmed before the
timed window (pure cache hits), the rest are distinct uncached specs
that must each execute exactly once.

Every request is timed submit -> settled (a cached POST settles in the
response itself; an uncached one follows the run's SSE stream to its
terminal status event, so no poll interval is measured).  After the
run the harness *asserts* the service-tier invariants this PR's
acceptance criteria name:

- zero dropped runs: every request settles ``done``;
- zero duplicated executions: the ``repro_runs_executed_total`` counter
  equals the number of distinct specs (warm-up + uncached), no matter
  how many threads raced;
- byte-identical payloads: a sample of served results matches direct
  ``repro.runs.execute`` with no service in the loop;
- ``GET /v1/metrics`` parses as strict Prometheus text exposition
  (validated with :func:`repro.service.parse_prometheus_text`).

It then writes ``BENCH_service.json`` in the ``benchmarks/_harness``
document format (p99 latency and total wall time as workloads, plus p50
latency outside ``--smoke``, so ``tools/bench_compare.py`` gates them
against the committed baseline)
and, with ``--metrics-out``, the final ``/v1/metrics`` scrape as an
artifact.

Usage::

    python tools/load_service.py                  # full: 200 requests
    python tools/load_service.py --smoke          # CI: small + fast
    python tools/load_service.py --clients 16 --requests 400
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.runs import ExecutionContext  # noqa: E402
from repro.runs import execute as runs_execute  # noqa: E402
from repro.runs.spec import spec_from_jsonable  # noqa: E402
from repro.service import create_server, parse_prometheus_text  # noqa: E402

#: Base spec for every generated workload item; seeds vary per request.
BASE_SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 10,
    "k": 4,
    "steps": 200,
    "stop": "c_star",
}

#: Seeds reserved for the warmed (cached) pool; uncached seeds start above.
WARM_SEEDS = (0, 1, 2, 3)
UNCACHED_SEED_BASE = 1000

SETTLED = ("done", "error", "cancelled")


def _percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


class Client:
    """One keep-alive HTTP client bound to the harness server."""

    def __init__(self, port, timeout=60.0):
        self._port = port
        self._timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None

    def submit_and_wait(self, spec):
        """POST ``spec`` and wait until the run settles.

        A run the POST answers as settled (a cache hit) returns that
        view.  Otherwise the run's SSE stream is followed to its
        terminal ``status`` event, whose data (``run_id``, ``status``,
        ``cached``) is returned.
        """
        status, view = self.request("POST", "/v1/runs", body=spec)
        if status not in (200, 202):
            raise AssertionError(f"POST /v1/runs -> {status}: {view}")
        if view["status"] in SETTLED:
            return view
        return self.follow_events(view["run_id"])

    def follow_events(self, run_id):
        """Read ``/v1/runs/<id>/events`` up to the terminal status event.

        The stream closes its connection at the end, so it gets its own
        connection and the keep-alive one stays free for requests.
        """
        conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=self._timeout)
        try:
            conn.request("GET", f"/v1/runs/{run_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise AssertionError(f"GET events -> {response.status}")
            event = None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: ") and event == "status":
                    data = json.loads(line[len("data: "):])
                    if data["status"] in SETTLED:
                        return data
        finally:
            conn.close()
        raise AssertionError(f"run {run_id[:16]} stream ended before it settled")

    def close(self):
        self._conn.close()


def build_workload(requests, cached_ratio):
    """Return ``(warm_specs, items)``: the pool to pre-warm and the
    per-request spec list (cached re-submissions interleaved with
    distinct uncached specs)."""
    warm_specs = [dict(BASE_SPEC, seed=seed) for seed in WARM_SEEDS]
    items = []
    accumulator = 0.0
    for index in range(requests):
        # Error-diffusion interleave: cached re-submissions are spread
        # evenly through the sequence so every client sees a mix.
        accumulator += cached_ratio
        if accumulator >= 1.0:
            accumulator -= 1.0
            items.append(("cached", warm_specs[index % len(warm_specs)]))
        else:
            items.append(("uncached", dict(BASE_SPEC, seed=UNCACHED_SEED_BASE + index)))
    return warm_specs, items


def run_load(clients, requests, cached_ratio, metrics_out=None):
    """Drive the workload; returns the measurement/validation document."""
    tempdir = tempfile.mkdtemp(prefix="repro-load-")
    server = create_server(
        "127.0.0.1", 0, ctx=ExecutionContext(cache=os.path.join(tempdir, "cache")), workers=4,
    )
    port = server.server_address[1]
    service = server.RequestHandlerClass.service
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()

    try:
        warm_specs, items = build_workload(requests, cached_ratio)

        # Warm the cached pool by *direct* execution into the service's
        # result cache (no HTTP, outside the timed window).  The service
        # process has never seen these run ids, so every cached re-POST
        # exercises the real content-addressed cache-hit path instead of
        # the in-memory run-registry dedup shortcut.
        for spec in warm_specs:
            runs_execute(spec_from_jsonable(spec), cache=service._cache)

        # Partition requests across client threads.
        per_client = [items[i::clients] for i in range(clients)]
        latencies = []
        views = []
        errors = []
        lock = threading.Lock()

        def client_loop(assigned):
            client = Client(port)
            try:
                for _kind, spec in assigned:
                    started = time.perf_counter()
                    view = client.submit_and_wait(spec)
                    elapsed = time.perf_counter() - started
                    with lock:
                        latencies.append(elapsed)
                        views.append((spec, view))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                client.close()

        wall_started = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, args=(chunk,)) for chunk in per_client
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - wall_started
        if errors:
            raise AssertionError(f"client errors: {errors}")

        # --- Invariant: zero dropped runs -----------------------------
        assert len(views) == requests, (len(views), requests)
        dropped = [v for _, v in views if v["status"] != "done"]
        assert not dropped, f"non-done runs: {dropped[:3]}"

        # --- Invariant: zero duplicated executions --------------------
        # Warmed specs were executed outside the service; the service
        # itself must execute each distinct *uncached* spec exactly once.
        warm_keys = {json.dumps(s, sort_keys=True) for s in warm_specs}
        distinct_uncached = {
            json.dumps(spec, sort_keys=True) for spec, _ in views
        } - warm_keys
        executed = int(service.metrics.value("runs_executed_total"))
        assert executed == len(distinct_uncached), (executed, len(distinct_uncached))

        # Every cached-kind request was served from the result cache
        # (directly, or deduplicated against a cache-hit entry).
        cached_requested = sum(1 for kind, _ in items if kind == "cached")
        cached_served = sum(1 for _, v in views if v.get("cached"))
        assert cached_served == cached_requested, (cached_served, cached_requested)

        # --- Invariant: payloads byte-identical to direct execute -----
        sample = [spec for _kind, spec in items if _kind == "uncached"][:3] or warm_specs[:3]
        for spec in sample:
            direct = runs_execute(spec_from_jsonable(spec))
            probe = Client(port)
            status, served = probe.request("GET", "/v1/runs/" + direct.run_id)
            probe.close()
            assert status == 200 and served["status"] == "done", (status, served)
            assert json.dumps(served["result"], sort_keys=True) == json.dumps(
                direct.payload, sort_keys=True
            ), f"payload drift for seed {spec['seed']}"

        # --- Invariant: /v1/metrics is valid Prometheus text ----------
        probe = Client(port)
        probe._conn.request("GET", "/v1/metrics")
        response = probe._conn.getresponse()
        scrape = response.read().decode("utf-8")
        content_type = response.getheader("Content-Type", "")
        probe.close()
        assert response.status == 200 and "version=0.0.4" in content_type, content_type
        samples = parse_prometheus_text(scrape)
        assert samples["repro_runs_total"]['status="done"'] >= len(distinct_uncached)
        assert samples["repro_cache_hits_total"][""] >= 1
        assert samples["repro_queue_depth"][""] == 0
        if metrics_out:
            os.makedirs(os.path.dirname(os.path.abspath(metrics_out)), exist_ok=True)
            with open(metrics_out, "w", encoding="utf-8") as handle:
                handle.write(scrape)

        return {
            "wall_s": wall_s,
            "latencies": latencies,
            "requests": requests,
            "clients": clients,
            "cached_ratio": cached_ratio,
            "cached_served": cached_served,
            "distinct_executed": executed,
            "throughput_rps": requests / wall_s if wall_s > 0 else 0.0,
        }
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


def emit_bench(result, mode, out_dir):
    """Write ``BENCH_service.json`` in the benchmarks/_harness format."""
    latencies = result["latencies"]
    workloads = {
        f"{mode}-p99-latency": {
            "median_s": round(_percentile(latencies, 0.99), 6),
            "runs": result["requests"],
        },
        f"{mode}-wall": {"median_s": round(result["wall_s"], 6), "runs": 1},
    }
    if mode != "smoke":
        # The smoke run's p50 (a few ms) is under tools/bench_compare.py's
        # MIN_COMPARABLE_S, so it could gate nothing.
        workloads[f"{mode}-p50-latency"] = {
            "median_s": round(_percentile(latencies, 0.50), 6),
            "runs": result["requests"],
        }
    document = {
        "experiment": "service",
        "workloads": workloads,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "clients": result["clients"],
        "cached_ratio": result["cached_ratio"],
        "cached_served": result["cached_served"],
        "distinct_executed": result["distinct_executed"],
        "throughput_rps": round(result["throughput_rps"], 3),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_service.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8, help="client threads (default 8)")
    parser.add_argument(
        "--requests", type=int, default=200, help="total requests across clients (default 200)"
    )
    parser.add_argument(
        "--cached-ratio", type=float, default=0.5,
        help="fraction of requests re-POSTing warmed specs (default 0.5)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast run for CI (4 clients, 40 requests, cached-heavy)",
    )
    parser.add_argument(
        "--out", default=os.environ.get("BENCH_OUT", "."),
        help="directory for BENCH_service.json (default $BENCH_OUT or CWD)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="write the final /v1/metrics scrape to this file (artifact)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        mode = "smoke"
        clients, requests, cached_ratio = 4, 40, 0.75
    else:
        mode = "mixed"
        clients, requests, cached_ratio = args.clients, args.requests, args.cached_ratio

    print(
        f"[load service] mode={mode} clients={clients} requests={requests} "
        f"cached_ratio={cached_ratio}",
        file=sys.stderr,
    )
    result = run_load(clients, requests, cached_ratio, metrics_out=args.metrics_out)
    path = emit_bench(result, mode, args.out)
    latencies = result["latencies"]
    print(
        f"[load service] ok: {result['requests']} requests, 0 dropped, "
        f"{result['distinct_executed']} distinct executions, "
        f"{result['cached_served']} served cached, "
        f"{result['throughput_rps']:.1f} req/s, "
        f"p50 {_percentile(latencies, 0.5) * 1000:.1f}ms "
        f"p99 {_percentile(latencies, 0.99) * 1000:.1f}ms",
        file=sys.stderr,
    )
    print(f"[load service] wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
