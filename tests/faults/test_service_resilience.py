"""Service resilience: drain, back-pressure headers, health states, deadlines."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import ExecutionContext
from repro.faults import FaultPlan, RetryPolicy
from repro.service import RunService, ServiceBusy, ServiceDraining, create_server

TINY_SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 10,
    "k": 4,
    "steps": 200,
    "seed": 0,
    "stop": "c_star",
}

#: A spec whose simulation is heavy enough (a few seconds) to hold a
#: worker slot for a while on any machine: a perpetual task, so it
#: never stops early, with a step budget tuned to run for seconds.
SLOW_SPEC = {
    "kind": "simulate",
    "algorithm": "ring-clearing",
    "n": 14,
    "k": 9,
    "steps": 100000,
    "seed": 1,
}


def _serve(service):
    srv = create_server(port=0, service=service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, f"http://127.0.0.1:{srv.server_address[1]}"


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}") as response:
        return response.status, json.load(response)


def _post_raw(base, document):
    request = urllib.request.Request(
        f"{base}/v1/runs",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request)


class TestDrain:
    def test_drain_rejects_new_submissions_with_503(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), retry_after_s=7.0)
        srv, base = _serve(service)
        try:
            service.drain()
            assert service.draining
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_raw(base, TINY_SPEC)
            error = excinfo.value
            assert error.code == 503
            # Machine-parseable back-off in both header and body.
            assert error.headers["Retry-After"] == "7"
            body = json.load(error)
            assert body["retry_after_s"] == 7.0
            assert "draining" in body["error"]
        finally:
            srv.shutdown()
            srv.server_close()

    def test_drain_finishes_in_flight_runs(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        srv, base = _serve(service)
        try:
            with _post_raw(base, TINY_SPEC) as response:
                run_id = json.load(response)["run_id"]
            service.drain()
            assert service.wait_idle(timeout=60.0)
            status, view = _get(base, f"/v1/runs/{run_id}")
            assert status == 200
            assert view["status"] == "done"
        finally:
            srv.shutdown()
            srv.server_close()

    def test_drain_is_idempotent_and_direct_submit_raises(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")))
        service.drain()
        service.drain()
        with pytest.raises(ServiceDraining):
            service.submit(TINY_SPEC)

    def test_wait_idle_times_out_with_unsettled_work(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1)
        service.submit(SLOW_SPEC)
        assert service.wait_idle(timeout=0.05) is False
        service.drain()
        assert service.wait_idle(timeout=120.0)
        service.shutdown()


class TestHealthStates:
    def test_ok_then_draining(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")))
        assert service.health()["status"] == "ok"
        service.drain()
        assert service.health()["status"] == "draining"

    def test_saturated_when_backlog_full(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=1, max_runs=1)
        service.submit(SLOW_SPEC)
        assert service.health()["status"] == "saturated"
        with pytest.raises(ServiceBusy):
            service.submit(TINY_SPEC)
        service.drain()
        service.wait_idle(timeout=120.0)
        service.shutdown()

    def test_429_carries_retry_after(self, tmp_path):
        service = RunService(
            ExecutionContext(cache=str(tmp_path / "cache")),
            workers=1,
            max_runs=1,
            retry_after_s=2.5,
        )
        srv, base = _serve(service)
        try:
            with _post_raw(base, SLOW_SPEC):
                pass
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_raw(base, TINY_SPEC)
            error = excinfo.value
            assert error.code == 429
            # Retry-After is integral seconds, rounded *up* from 2.5.
            assert error.headers["Retry-After"] == "3"
            body = json.load(error)
            assert body["retry_after_s"] == 2.5
        finally:
            service.drain()
            service.wait_idle(timeout=120.0)
            srv.shutdown()
            srv.server_close()


class TestRunDeadline:
    def test_hung_run_is_killed_and_reported_retryable(self, tmp_path):
        service = RunService(ExecutionContext(cache=str(tmp_path / "cache"), timeout=1.0))
        view, created = service.submit(SLOW_SPEC)
        assert created
        start = time.monotonic()
        assert service.wait_idle(timeout=60.0), "deadline must reap the run"
        assert time.monotonic() - start < 60.0
        status = service.status(view["run_id"])
        assert status["status"] == "error"
        assert status["error"]["type"] == "DeadlineExceeded"
        # A deadline error is transient: resubmission schedules a fresh
        # attempt instead of replaying the stale failure.
        _, created_again = service.submit(SLOW_SPEC)
        assert created_again
        service.drain()
        service.wait_idle(timeout=60.0)
        service.shutdown()

    def test_rejects_bad_configuration(self, tmp_path):
        with pytest.raises(ValueError, match="timeout"):
            RunService(ExecutionContext(timeout=0.0))
        with pytest.raises(ValueError, match="retry_after_s"):
            RunService(retry_after_s=0.0)


class TestServiceFaultInjection:
    def test_injected_transient_is_surfaced_and_retryable(self, tmp_path):
        plan = FaultPlan(sites={"service.run:*": "transient"})
        service = RunService(
            ExecutionContext(
                cache=str(tmp_path / "cache"),
                fault_plan=plan,
                retry=RetryPolicy(base_delay_s=0.0),
            ),
        )
        view, _ = service.submit(TINY_SPEC)
        service.wait_idle(timeout=60.0)
        status = service.status(view["run_id"])
        assert status["status"] == "error"
        assert status["error"]["type"] == "TransientFaultError"
        # The site fired once; resubmission now runs clean and succeeds.
        view2, created = service.submit(TINY_SPEC)
        assert created
        service.wait_idle(timeout=60.0)
        assert service.status(view2["run_id"])["status"] == "done"
        service.shutdown()

    def test_faulted_result_equals_clean_result(self, tmp_path):
        clean = RunService(ExecutionContext(cache=str(tmp_path / "c1")))
        view, _ = clean.submit(TINY_SPEC)
        clean.wait_idle(timeout=60.0)
        clean_result = clean.status(view["run_id"])["result"]
        clean.shutdown()

        plan = FaultPlan(sites={"service.run:*": "transient"})
        faulted = RunService(
            ExecutionContext(
                cache=str(tmp_path / "c2"),
                fault_plan=plan,
                retry=RetryPolicy(base_delay_s=0.0),
            ),
        )
        faulted.submit(TINY_SPEC)
        faulted.wait_idle(timeout=60.0)
        view2, _ = faulted.submit(TINY_SPEC)  # second attempt, site spent
        faulted.wait_idle(timeout=60.0)
        assert faulted.status(view2["run_id"])["result"] == clean_result
        faulted.shutdown()
