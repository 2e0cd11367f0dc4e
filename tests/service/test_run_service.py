"""Tests for the HTTP execution service (repro serve)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runs import ExecutionContext, SimulateSpec, cache_key
from repro.service import RunService, create_server

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


def _post(base, document):
    request = urllib.request.Request(
        f"{base}/v1/runs",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
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


class TestEndpoints:
    def test_health(self, server):
        status, document = _get(server, "/v1/health")
        assert status == 200
        assert document["status"] == "ok"
        assert document["cache"]

    def test_submit_poll_and_cached_resubmit(self, server):
        status, first = _post(server, TINY_SPEC)
        assert status == 202
        assert first["status"] in ("queued", "running", "done")
        # The run id is the content-addressed key of the spec itself.
        assert first["run_id"] == cache_key(
            SimulateSpec(**{k: v for k, v in TINY_SPEC.items() if k != "kind"})
        )
        view = _wait_done(server, first["run_id"])
        assert view["status"] == "done"
        assert view["result"]["reached_c_star"]

        status, second = _post(server, TINY_SPEC)
        assert status == 200  # known spec: nothing new scheduled
        assert second["run_id"] == first["run_id"]
        assert second["status"] == "done"
        assert second["result"] == view["result"]

    def test_spec_wrapper_accepted(self, server):
        status, view = _post(server, {"spec": TINY_SPEC})
        assert status in (200, 202)
        assert view["run_id"]

    def test_invalid_spec_is_400(self, server):
        request = urllib.request.Request(
            f"{server}/v1/runs",
            data=json.dumps({"kind": "teleport"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value:
            assert excinfo.value.code == 400
            assert "unknown run spec kind" in json.load(excinfo.value)["error"]

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server}/v1/runs", data=b"{torn", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value:
            assert excinfo.value.code == 400

    def test_unknown_run_id_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server}/v1/runs/{'0' * 64}")
        with excinfo.value:
            assert excinfo.value.code == 404

    def test_path_traversal_run_ids_are_rejected(self, server, tmp_path):
        """URL-supplied run ids must never reach the filesystem."""
        victim = tmp_path / "victim.json"
        victim.write_text(json.dumps({"payload": {"secret": True}}))
        traversals = [
            f"..%2F..%2F{victim}".replace("/", "%2F"),
            str(victim).replace("/", "%2F"),
            "..%2F..%2Fetc%2Fpasswd",
            "A" * 64,  # uppercase: not a digest of ours
            "zz" + "0" * 62,
        ]
        for run_id in traversals:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server}/v1/runs/{run_id}")
            with excinfo.value:
                assert excinfo.value.code == 404, run_id
        assert victim.exists(), "traversal attempt must not delete files"
        assert json.loads(victim.read_text())["payload"]["secret"] is True

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server}/v2/anything")
        with excinfo.value:
            assert excinfo.value.code == 404


class TestServiceRobustness:
    def test_structurally_wrong_spec_is_400_not_a_crash(self, server):
        for document in (
            {"kind": "verify", "task": "searching", "cells": [3, 6]},
            {"kind": "simulate", "engine": {"presentation_seed": "big"}},
            {"kind": "simulate", "engine": {"decision_cache": False}},
            {"kind": "simulate", "algorithm": "sweep", "n": 11, "k": 4, "steps": 300,
             "seed": 5, "engine": {"presentation_seed": None}},
        ):
            request = urllib.request.Request(
                f"{server}/v1/runs",
                data=json.dumps(document).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            with excinfo.value:
                assert excinfo.value.code == 400

    def test_errored_run_is_rescheduled_on_resubmit(self, tmp_path, monkeypatch):
        import repro.service.server as server_module

        service = RunService(ExecutionContext(cache=str(tmp_path)), workers=1)
        calls = {"n": 0}
        real_execute = server_module.execute

        def flaky_execute(spec, ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient failure")
            return real_execute(spec, ctx)

        monkeypatch.setattr(server_module, "execute", flaky_execute)
        view, created = service.submit(TINY_SPEC)
        assert created
        deadline = time.time() + 30
        while time.time() < deadline:
            view = service.status(view["run_id"])
            if view["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert view["status"] == "error"

        retry, created = service.submit(TINY_SPEC)
        assert created, "an errored run must be rescheduled, not pinned"
        while time.time() < deadline:
            retry = service.status(retry["run_id"])
            if retry["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert retry["status"] == "done"
        service.shutdown()

    def test_error_responses_close_keepalive_connections(self, server):
        """An early 400 (body never read) must not poison the connection."""
        import http.client
        from urllib.parse import urlparse

        parsed = urlparse(server)
        connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            # Declare a body larger than MAX_BODY_BYTES: the server
            # rejects before reading it, so it must close the connection
            # (otherwise our unread bytes would be parsed as a request).
            connection.putrequest("POST", "/v1/runs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str((1 << 20) + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_transiently_failed_run_is_retryable(self, tmp_path, monkeypatch):
        import repro.service.server as server_module
        from repro.runs import RunResult, SimulateSpec

        service = RunService(ExecutionContext(cache=str(tmp_path)), workers=1)
        calls = {"n": 0}
        real_execute = server_module.execute

        def flaky_execute(spec, ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                # A campaign whose worker died: execute() returns
                # normally but flags the payload as non-deterministic.
                return RunResult(
                    run_id="x" * 64, spec=spec, payload={"passed": False},
                    deterministic=False,
                )
            return real_execute(spec, ctx)

        monkeypatch.setattr(server_module, "execute", flaky_execute)
        view, created = service.submit(TINY_SPEC)
        assert created
        deadline = time.time() + 30
        while time.time() < deadline:
            view = service.status(view["run_id"])
            if view["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert view["status"] == "done"

        retry, created = service.submit(TINY_SPEC)
        assert created, "a transiently-failed 'done' run must be rescheduled"
        while time.time() < deadline:
            retry = service.status(retry["run_id"])
            if retry["status"] in ("done", "error"):
                break
            time.sleep(0.02)
        assert retry["status"] == "done"
        assert retry["result"]["reached_c_star"]
        service.shutdown()

    def test_full_backlog_rejects_submissions(self, tmp_path):
        from repro.service.server import ServiceBusy

        service = RunService(ExecutionContext(cache=str(tmp_path)), workers=1, max_runs=2)
        with service._lock:
            service._runs["a" * 64] = {"status": "queued", "result": None, "error": None}
            service._runs["b" * 64] = {"status": "running", "result": None, "error": None}
        with pytest.raises(ServiceBusy, match="backlog full"):
            service.submit(TINY_SPEC)
        service.shutdown()

    def test_registry_is_bounded_but_running_entries_survive(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path)), workers=1, max_runs=2)
        with service._lock:
            service._runs["a" * 64] = {"status": "done", "result": {}, "error": None}
            service._runs["b" * 64] = {"status": "running", "result": None, "error": None}
            service._runs["c" * 64] = {"status": "done", "result": {}, "error": None}
            service._prune_locked()
            assert "a" * 64 not in service._runs  # oldest settled entry dropped
            assert "b" * 64 in service._runs      # running entries never dropped
            assert "c" * 64 in service._runs
        service.shutdown()

    def test_pruning_at_the_cap_takes_the_oldest_settled_entries(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path)), workers=1, max_runs=3)
        layout = [
            ("a", "queued"), ("b", "done"), ("c", "running"), ("d", "error"),
            ("e", "cancelled"), ("f", "done"), ("g", "queued"),
        ]
        with service._lock:
            for name, status in layout:
                service._runs[name * 64] = {"status": status, "result": None, "error": None}
            service._prune_locked()  # excess 4: the four oldest settled go
            assert list(service._runs) == ["a" * 64, "c" * 64, "g" * 64]
            service._runs["h" * 64] = {"status": "done", "result": {}, "error": None}
            service._prune_locked()  # unsettled entries never go, even when older
            assert list(service._runs) == ["a" * 64, "c" * 64, "g" * 64]
        service.shutdown()

    def test_cache_hit_submissions_respect_the_registry_bound(self, tmp_path):
        """The cache-hit branch of submit() must prune like the others."""
        cache = str(tmp_path / "shared")
        warm = RunService(ExecutionContext(cache=cache), workers=2)
        specs = [dict(TINY_SPEC, seed=seed) for seed in range(4)]
        ids = []
        for spec in specs:
            view, _ = warm.submit(spec)
            ids.append(view["run_id"])
        deadline = time.time() + 60
        for run_id in ids:
            while time.time() < deadline:
                if warm.status(run_id)["status"] == "done":
                    break
                time.sleep(0.02)
        warm.shutdown()

        bounded = RunService(ExecutionContext(cache=cache), workers=1, max_runs=2)
        for spec in specs:
            view, created = bounded.submit(spec)
            assert not created and view["status"] == "done"
        with bounded._lock:
            assert len(bounded._runs) <= 2
        bounded.shutdown()


class TestServiceAcrossProcessesViaSharedCache:
    def test_fresh_service_answers_from_shared_cache(self, tmp_path):
        cache = str(tmp_path / "shared")
        first = RunService(ExecutionContext(cache=cache), workers=1)
        view, created = first.submit(TINY_SPEC)
        assert created
        deadline = time.time() + 30
        while time.time() < deadline:
            view = first.status(view["run_id"])
            if view["status"] == "done":
                break
            time.sleep(0.02)
        assert view["status"] == "done"
        first.shutdown()

        # A brand-new service over the same cache knows the run already.
        second = RunService(ExecutionContext(cache=cache), workers=1)
        resubmit, created = second.submit(TINY_SPEC)
        assert not created
        assert resubmit["status"] == "done"
        assert resubmit["cached"] is True
        assert second.status(view["run_id"])["result"] == view["result"]
        second.shutdown()
