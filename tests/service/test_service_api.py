"""Tests for the production-tier API surface of repro serve.

Covers the queue-backed endpoints added on top of the original
submit/status pair: Prometheus metrics, SSE event streams, cancellation,
priorities, crash-resume from the queue journal, structured JSON request
logs — and the query-string routing regression (a URL with ``?...`` must
route exactly like one without).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.service.server as server_module
from repro.runs import ExecutionContext
from repro.runs import execute as runs_execute
from repro.runs.cache import ResultCache
from repro.runs.spec import spec_from_jsonable
from repro.service import (
    CancelConflict,
    JobQueue,
    RunService,
    create_server,
    parse_prometheus_text,
)

TINY_SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 10,
    "k": 4,
    "steps": 200,
    "seed": 0,
    "stop": "c_star",
}

VERIFY_SPEC = {
    "kind": "verify",
    "task": "searching",
    "cells": [[3, 6], [3, 7]],
}


@pytest.fixture()
def server(tmp_path):
    srv = create_server(port=0, ctx=ExecutionContext(cache=str(tmp_path / "cache")), workers=2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}") as response:
        return response.status, json.load(response)


def _post(base, document, path="/v1/runs"):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _delete(base, run_id):
    request = urllib.request.Request(f"{base}/v1/runs/{run_id}", method="DELETE")
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _wait_done(base, run_id, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, view = _get(base, f"/v1/runs/{run_id}")
        if view["status"] in ("done", "error"):
            return view
        time.sleep(0.02)
    raise AssertionError(f"run {run_id} did not finish within {timeout}s")


def _wait_service_done(service, run_id, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        view = service.status(run_id)
        if view is not None and view["status"] in ("done", "error", "cancelled"):
            return view
        time.sleep(0.02)
    raise AssertionError(f"run {run_id} did not settle within {timeout}s")


class _GatedExecute:
    """execute() wrapper that blocks selected calls on an event."""

    def __init__(self, gate, block_first=1):
        self.gate = gate
        self.calls = 0
        self._block_first = block_first
        self._lock = threading.Lock()

    def __call__(self, spec, ctx):
        with self._lock:
            self.calls += 1
            blocked = self.calls <= self._block_first
        if blocked:
            assert self.gate.wait(timeout=60), "test gate never released"
        return runs_execute(spec, ctx)


class TestQueryStringRouting:
    """Regression: the router used to 404 any URL carrying ``?...``."""

    def test_health_with_query(self, server):
        status, document = _get(server, "/v1/health?probe=lb")
        assert status == 200
        assert document["status"] == "ok"

    def test_run_status_with_query(self, server):
        _, view = _post(server, TINY_SPEC)
        _wait_done(server, view["run_id"])
        status, polled = _get(server, f"/v1/runs/{view['run_id']}?poll=1&x=y")
        assert status == 200
        assert polled["status"] == "done"

    def test_metrics_with_query(self, server):
        with urllib.request.urlopen(f"{server}/v1/metrics?format=prometheus") as resp:
            assert resp.status == 200

    def test_events_with_query(self, server):
        _, view = _post(server, TINY_SPEC)
        _wait_done(server, view["run_id"])
        with urllib.request.urlopen(
            f"{server}/v1/runs/{view['run_id']}/events?last=0"
        ) as resp:
            assert resp.status == 200
            assert "text/event-stream" in resp.headers["Content-Type"]
            assert b"event: status" in resp.read()

    def test_post_with_query(self, server):
        status, view = _post(server, TINY_SPEC, path="/v1/runs?source=test")
        assert status in (200, 202)
        assert view["run_id"]


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server):
        _, view = _post(server, TINY_SPEC)
        _wait_done(server, view["run_id"])
        _post(server, TINY_SPEC)  # a deduplicated/cached second submit
        with urllib.request.urlopen(f"{server}/v1/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        samples = parse_prometheus_text(text)  # raises on malformed output
        assert samples["repro_runs_total"]['status="done"'] >= 1
        assert samples["repro_runs_executed_total"][""] >= 1
        assert samples["repro_queue_depth"][""] == 0
        assert samples["repro_run_duration_seconds_count"][""] >= 1
        request_series = samples["repro_http_requests_total"]
        assert any('endpoint="/v1/runs"' in labels for labels in request_series)

    def test_run_id_paths_collapse_to_one_endpoint_label(self, server):
        _, view = _post(server, TINY_SPEC)
        _wait_done(server, view["run_id"])
        with urllib.request.urlopen(f"{server}/v1/metrics") as response:
            samples = parse_prometheus_text(response.read().decode("utf-8"))
        labels = "".join(samples["repro_http_requests_total"])
        assert view["run_id"] not in labels
        assert 'endpoint="/v1/runs/{id}"' in labels


class TestEventStream:
    def test_full_lifecycle_is_streamed(self, server):
        _, view = _post(server, TINY_SPEC)
        _wait_done(server, view["run_id"])
        with urllib.request.urlopen(f"{server}/v1/runs/{view['run_id']}/events") as resp:
            body = resp.read().decode("utf-8")
        events = []
        for frame in body.strip().split("\n\n"):
            lines = dict(line.split(": ", 1) for line in frame.splitlines())
            events.append((lines["event"], json.loads(lines["data"])))
        statuses = [data["status"] for event, data in events if event == "status"]
        assert statuses[0] == "queued"
        assert statuses[-1] == "done"

    def test_campaign_runs_stream_progress_ticks(self, server):
        _, view = _post(server, VERIFY_SPEC)
        _wait_done(server, view["run_id"], timeout=120)
        with urllib.request.urlopen(f"{server}/v1/runs/{view['run_id']}/events") as resp:
            body = resp.read().decode("utf-8")
        progress = [
            json.loads(frame.split("data: ", 1)[1])
            for frame in body.strip().split("\n\n")
            if "event: progress" in frame
        ]
        assert len(progress) == 2  # one tick per verify cell
        assert {tick["done"] for tick in progress} == {1, 2}
        assert all(tick["total"] == 2 for tick in progress)

    def test_unknown_run_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server}/v1/runs/{'0' * 64}/events")
        with excinfo.value:
            assert excinfo.value.code == 404

    def test_cache_served_run_still_gets_a_terminal_event(self, tmp_path):
        # Complete the run in one service, stream it from a fresh one:
        # the new process never published anything for this run.
        cache = str(tmp_path / "shared")
        first = RunService(ExecutionContext(cache=cache), workers=1)
        view, _ = first.submit(TINY_SPEC)
        _wait_service_done(first, view["run_id"])
        first.shutdown()

        srv = create_server(port=0, ctx=ExecutionContext(cache=cache), workers=1)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{srv.server_address[1]}"
            with urllib.request.urlopen(
                f"{base}/v1/runs/{view['run_id']}/events"
            ) as resp:
                body = resp.read().decode("utf-8")
            assert '"status": "done"'.replace(" ", "") in body.replace(" ", "")
        finally:
            srv.shutdown()
            srv.server_close()


class TestCancellation:
    def test_cancel_queued_run_via_http(self, tmp_path):
        gate = threading.Event()
        gated = _GatedExecute(gate)
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        srv = create_server(port=0, service=service)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        original = server_module.execute
        server_module.execute = gated
        try:
            base = f"http://127.0.0.1:{srv.server_address[1]}"
            _, blocker = _post(base, TINY_SPEC)  # occupies the only worker
            _, queued = _post(base, dict(TINY_SPEC, seed=1))
            status, cancelled = _delete(base, queued["run_id"])
            assert status == 200
            assert cancelled["status"] == "cancelled"
            _, view = _get(base, f"/v1/runs/{queued['run_id']}")
            assert view["status"] == "cancelled"
            # A settled run can no longer be cancelled.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _delete(base, queued["run_id"])
            with excinfo.value:
                assert excinfo.value.code == 409
        finally:
            gate.set()
            server_module.execute = original
            srv.shutdown()
            srv.server_close()
            service.shutdown()

    def test_cancel_unknown_and_invalid_ids_are_404(self, server):
        for run_id in ("0" * 64, "nonsense"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _delete(server, run_id)
            with excinfo.value:
                assert excinfo.value.code == 404, run_id

    def test_cancel_running_run_conflicts(self, tmp_path):
        gate = threading.Event()
        gated = _GatedExecute(gate)
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        original = server_module.execute
        server_module.execute = gated
        try:
            view, _ = service.submit(TINY_SPEC)
            deadline = time.time() + 10
            while time.time() < deadline:
                if service.status(view["run_id"])["status"] == "running":
                    break
                time.sleep(0.01)
            with pytest.raises(CancelConflict, match="running"):
                service.cancel(view["run_id"])
        finally:
            gate.set()
            server_module.execute = original
            service.shutdown()

    def test_cancelled_run_can_be_resubmitted(self, tmp_path):
        gate = threading.Event()
        gated = _GatedExecute(gate)
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        original = server_module.execute
        server_module.execute = gated
        try:
            service.submit(TINY_SPEC)  # blocks the single worker
            queued, created = service.submit(dict(TINY_SPEC, seed=1))
            assert created
            assert service.cancel(queued["run_id"])["status"] == "cancelled"
            gate.set()
            resubmitted, created = service.submit(dict(TINY_SPEC, seed=1))
            assert created, "a cancelled run must be reschedulable"
            view = _wait_service_done(service, resubmitted["run_id"])
            assert view["status"] == "done"
        finally:
            gate.set()
            server_module.execute = original
            service.shutdown()


class TestPriorities:
    def test_higher_priority_jumps_the_queue(self, tmp_path):
        gate = threading.Event()
        gated = _GatedExecute(gate)
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        original = server_module.execute
        server_module.execute = gated
        try:
            blocker, _ = service.submit(TINY_SPEC)  # will block on the gate
            deadline = time.time() + 10
            while time.time() < deadline:
                if service.status(blocker["run_id"])["status"] == "running":
                    break
                time.sleep(0.01)
            low, _ = service.submit(dict(TINY_SPEC, seed=1), priority=0)
            high, _ = service.submit(dict(TINY_SPEC, seed=2), priority=5)
            low_view = service.status(low["run_id"])
            high_view = service.status(high["run_id"])
            assert high_view["queue_position"] == 0
            assert high_view["priority"] == 5
            assert low_view["queue_position"] == 1
        finally:
            gate.set()
            server_module.execute = original
            service.shutdown()

    def test_priority_travels_in_the_spec_wrapper(self, server):
        status, view = _post(server, {"spec": dict(TINY_SPEC, seed=9), "priority": 3})
        assert status in (200, 202)
        assert view["run_id"]

    def test_non_integer_priority_is_400(self, server):
        for bad in ("high", 1.5, True):
            request = urllib.request.Request(
                f"{server}/v1/runs",
                data=json.dumps({"spec": TINY_SPEC, "priority": bad}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            with excinfo.value:
                assert excinfo.value.code == 400, bad

    def test_priority_never_perturbs_run_id_or_payload(self, tmp_path):
        spec = spec_from_jsonable(TINY_SPEC)
        direct = runs_execute(spec)
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        try:
            view, _ = service.submit(TINY_SPEC, priority=42)
            assert view["run_id"] == direct.run_id
            done = _wait_service_done(service, view["run_id"])
            assert done["result"] == direct.payload
        finally:
            service.shutdown()


class TestCrashResume:
    def test_unsettled_jobs_rerun_on_restart(self, tmp_path):
        cache = str(tmp_path / "cache")
        gate = threading.Event()
        gated = _GatedExecute(gate)
        original = server_module.execute
        server_module.execute = gated
        try:
            crashed = RunService(ExecutionContext(cache=cache), workers=1)
            view, _ = crashed.submit(TINY_SPEC)
            deadline = time.time() + 10
            while time.time() < deadline and gated.calls == 0:
                time.sleep(0.01)
            # "Crash": abandon the service mid-run, journal unsettled.

            revived = RunService(ExecutionContext(cache=cache), workers=1)
            recovered = _wait_service_done(revived, view["run_id"])
            assert recovered["status"] == "done"
            assert recovered["result"]["reached_c_star"]
            revived.shutdown()
        finally:
            gate.set()
            server_module.execute = original

    def test_completed_but_unsettled_job_resumes_as_cache_hit(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = spec_from_jsonable(TINY_SPEC)
        direct = runs_execute(spec, cache=ResultCache(cache_dir))
        journal = str(tmp_path / "cache" / "queue" / "journal.jsonl")
        walkaway = JobQueue(journal_path=journal)
        walkaway.submit(direct.run_id, TINY_SPEC)
        # No settle: the "crash" hit between cache write and journaling.

        service = RunService(ExecutionContext(cache=cache_dir), workers=1)
        try:
            view = service.status(direct.run_id)
            assert view["status"] == "done"
            assert view["cached"] is True
            assert view["result"] == direct.payload
            # Recovery journals the missing settle: nothing to recover now.
            assert JobQueue(journal_path=journal).recover() == []
        finally:
            service.shutdown()

    def test_journal_lives_under_the_cache_root(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        service = RunService(ExecutionContext(cache=cache_dir), workers=1)
        try:
            view, _ = service.submit(TINY_SPEC)
            _wait_service_done(service, view["run_id"])
        finally:
            service.shutdown()
        journal = tmp_path / "cache" / "queue" / "journal.jsonl"
        assert journal.exists()
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [event["event"] for event in events] == ["submit", "settle"]

    def test_memory_only_service_has_no_journal(self):
        service = RunService(ExecutionContext(cache=None), workers=1)
        try:
            assert service.health()["queue"]["journal"] is None
        finally:
            service.shutdown()


class TestStructuredLogs:
    def test_json_log_line_per_request(self, tmp_path, capsys):
        srv = create_server(
            port=0, ctx=ExecutionContext(cache=str(tmp_path / "cache")), workers=1, log_json=True,
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{srv.server_address[1]}"
            _get(base, "/v1/health?probe=lb")
        finally:
            srv.shutdown()
            srv.server_close()
        lines = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        health = [line for line in lines if line["path"] == "/v1/health?probe=lb"]
        assert health, "expected a structured log line for the health request"
        assert health[0]["method"] == "GET"
        assert health[0]["status"] == 200
        assert health[0]["duration_ms"] >= 0
        assert health[0]["ts"].endswith("Z")
