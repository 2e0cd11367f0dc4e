"""Submit RunSpecs to a `repro serve` instance and poll for results.

Usage::

    python examples/service_client.py                 # self-contained demo
    python examples/service_client.py http://host:port  # against a live server

Without an argument the script starts an in-process server on an
ephemeral port (the same code `repro serve` runs), so it always works
stand-alone. It then:

1. checks ``GET /v1/health``,
2. submits a small ``SimulateSpec`` via ``POST /v1/runs``,
3. polls ``GET /v1/runs/<id>`` until the run is done,
4. re-submits the identical spec and shows that the answer comes back
   instantly from the content-addressed cache under the same run id.
"""

import json
import sys
import tempfile
import threading
import time
import urllib.request

SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 12,
    "k": 5,
    "steps": 300,
    "seed": 0,
    "stop": "c_star",
}


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}") as response:
        return json.load(response)


def post_run(base: str, spec: dict) -> dict:
    request = urllib.request.Request(
        f"{base}/v1/runs",
        data=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def wait_done(base: str, run_id: str, timeout_s: float = 60.0) -> dict:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        view = get(base, f"/v1/runs/{run_id}")
        if view["status"] in ("done", "error"):
            return view
        time.sleep(0.05)
    raise TimeoutError(f"run {run_id} still {view['status']} after {timeout_s}s")


def main(base: str = None) -> None:
    started_server = None
    if base is None:
        # No server given: start one in-process on an ephemeral port.
        from repro.runs import ExecutionContext
        from repro.service import create_server

        cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
        started_server = create_server(port=0, ctx=ExecutionContext(cache=cache_dir), workers=2)
        threading.Thread(target=started_server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{started_server.server_address[1]}"
        print(f"started in-process server at {base} (cache: {cache_dir})")

    try:
        health = get(base, "/v1/health")
        print(f"health: {health['status']} (version {health['version']})")

        first = post_run(base, SPEC)
        print(f"submitted: run_id={first['run_id'][:16]}… status={first['status']}")

        done = wait_done(base, first["run_id"])
        result = done["result"]
        print(
            f"finished: {result['total_moves']} moves in "
            f"{result['steps_executed']} steps, "
            f"reached C*: {result['reached_c_star']}"
        )

        t0 = time.perf_counter()
        second = post_run(base, SPEC)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        assert second["run_id"] == first["run_id"], "same spec must map to same run id"
        assert second["status"] == "done", "identical spec must be answered instantly"
        print(
            f"resubmitted identical spec: same run id, status=done in "
            f"{elapsed_ms:.1f} ms (served from the content-addressed cache)"
        )
    finally:
        if started_server is not None:
            started_server.shutdown()
            started_server.server_close()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
