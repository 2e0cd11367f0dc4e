"""Latency regression tests: TCP_NODELAY on every server connection.

``BaseHTTPRequestHandler`` sends the headers and the body as separate
writes, and the SSE stream sends one write per frame.  With Nagle's
algorithm on, a small write that follows an unacknowledged one waits
for the client's delayed ACK: a fixed ~40 ms stall on every response.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.runs import ExecutionContext
from repro.service import create_server

TINY_SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 10,
    "k": 4,
    "steps": 200,
    "seed": 0,
    "stop": "c_star",
}


@pytest.fixture()
def recording_server(tmp_path):
    """A live server whose handler records TCP_NODELAY per response."""
    server = create_server(port=0, ctx=ExecutionContext(cache=str(tmp_path / "cache")))
    seen = []

    class Recording(server.RequestHandlerClass):
        def end_headers(self):
            nodelay = self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            seen.append((self.path, nodelay))
            super().end_headers()

    server.RequestHandlerClass = Recording
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], seen
    finally:
        server.shutdown()
        server.server_close()
        Recording.service.shutdown()


def _terminal_status(port, run_id):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", f"/v1/runs/{run_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        status = None
        for raw in response:
            line = raw.decode("utf-8")
            if line.startswith("data: "):
                status = json.loads(line[len("data: "):]).get("status", status)
        return status
    finally:
        conn.close()


def test_json_and_sse_responses_set_tcp_nodelay(recording_server):
    port, seen = recording_server
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request(
        "POST", "/v1/runs", body=json.dumps(TINY_SPEC),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    view = json.loads(response.read())
    conn.close()
    assert response.status == 202
    assert _terminal_status(port, view["run_id"]) == "done"

    by_path = dict(seen)
    assert by_path["/v1/runs"] != 0  # JSON response
    assert by_path[f"/v1/runs/{view['run_id']}/events"] != 0  # SSE stream


def test_keepalive_health_median_is_far_below_the_delayed_ack_stall(recording_server):
    port, _ = recording_server
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/v1/health")  # connect outside the timing
        conn.getresponse().read()
        samples = []
        for _ in range(20):
            started = time.perf_counter()
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            samples.append(time.perf_counter() - started)
            assert response.status == 200
    finally:
        conn.close()
    # The stall is a fixed ~40 ms per response; an answer at the speed of
    # the handler's own code is a fraction of a millisecond.
    assert statistics.median(samples) < 0.020, samples
