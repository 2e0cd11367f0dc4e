"""The ``repro serve`` HTTP API: RunSpecs over the wire, stdlib only.

Endpoints (JSON unless noted)::

    GET    /v1/health               liveness + version + queue counters
    GET    /v1/metrics              Prometheus text-format scrape
    POST   /v1/runs                 submit a RunSpec document, get a run id
    GET    /v1/runs/<id>            status / result of a submitted run
    DELETE /v1/runs/<id>            cancel a still-queued run
    GET    /v1/runs/<id>/events     SSE progress stream (text/event-stream)

The run id is the *content-addressed cache key* of the submitted spec
(:func:`repro.runs.cache.cache_key`): submitting the same spec twice —
from the same client or a different one — yields the same id, and once
the first submission completes (or a previous process populated the
shared :class:`~repro.runs.cache.ResultCache`), the second answers
``done`` instantly from the cache.

The server is a :class:`http.server.ThreadingHTTPServer` (one thread per
connection, no new dependencies) in front of a **persistent job queue**
(:class:`~repro.service.queue.JobQueue`): submissions enqueue with an
optional priority, a fixed pool of worker threads drains the queue, and
— when a result cache is attached — every lifecycle transition is
journaled to ``<cache>/queue/journal.jsonl`` so a restarted server
re-queues the jobs that were in flight when the previous process died.
Because run ids are content-addressed, replaying a job that had already
completed is a free cache hit.  Queue position and priority are
execution context only: they never enter a spec, a run id or a cache
key, so results stay byte-identical to a direct
:func:`repro.runs.execute.execute` call.

Every run goes through that same :func:`~repro.runs.execute.execute`
code path as the CLI, tests and benchmarks.
"""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from time import perf_counter
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from .. import __version__
from ..campaign import DEFAULT_CONTEXT, ExecutionContext
from ..runs.cache import cache_key
from ..runs.execute import execute
from ..runs.spec import RunSpec, spec_from_jsonable
from .events import EventBroker, format_sse
from .metrics import MetricsRegistry
from .queue import DEFAULT_PRIORITY, JobQueue

__all__ = [
    "RunService",
    "RunRequestHandler",
    "ServiceBusy",
    "ServiceDraining",
    "CancelConflict",
    "create_server",
    "serve",
]


class ServiceBusy(Exception):
    """Raised by :meth:`RunService.submit` when the backlog is full."""


class ServiceDraining(Exception):
    """Raised by :meth:`RunService.submit` while the service drains.

    A draining service finishes its in-flight runs but accepts no new
    work; the HTTP layer translates this into ``503`` with a
    ``Retry-After`` header so well-behaved clients fail over or back
    off instead of hammering a server that is about to exit.
    """


class CancelConflict(Exception):
    """Raised by :meth:`RunService.cancel` for a run that cannot be
    cancelled — it is already running (a worker thread cannot be killed
    safely) or already settled.  The HTTP layer answers ``409``.
    """

#: Maximal accepted request body (a spec is tiny; anything bigger is abuse).
MAX_BODY_BYTES = 1 << 20

#: Run ids are SHA-256 hex digests; anything else is rejected before it
#: can reach the cache (URL-supplied ids must never touch the filesystem
#: unvalidated).
_RUN_ID_RE = re.compile(r"^[0-9a-f]{64}$")

#: Statuses that count as settled (terminal) in the run registry.
_SETTLED = ("done", "error", "cancelled")


class RunService:
    """Run registry + persistent job queue behind the HTTP handler.

    Args:
        ctx: the execution context every run executes under (see
            :class:`~repro.campaign.context.ExecutionContext`).  Its
            ``cache`` is shared with :func:`execute` (``None`` keeps
            results in memory only) and its ``timeout`` is a per-run
            deadline: a hung run is killed and surfaced as a retryable
            ``DeadlineExceeded`` error instead of occupying a worker slot
            forever.  A ``fault_plan`` also arms the service's own
            ``service.run:<id>`` injection site.  Each run gets its own
            progress callback (feeding the SSE stream), and the
            service's :attr:`metrics` registry counts campaign units.
        workers: number of worker threads draining the job queue (the
            maximal number of concurrently executing runs).
        max_runs: bound on the in-memory run registry; when exceeded,
            the oldest *settled* (done/error/cancelled) entries are
            dropped.  With a cache attached, dropped ``done`` runs
            remain answerable — their run id is their cache key.  The
            same bound caps the *unsettled* backlog: once ``max_runs``
            runs are queued or running, new submissions raise
            :class:`ServiceBusy` (HTTP 429) instead of growing the
            queue without limit.
        retry_after_s: advisory back-off, in seconds, sent to clients in
            the ``Retry-After`` header of 429/503 responses.

    The job queue journals to ``<cache>/queue/journal.jsonl`` when a
    cache is attached; without a cache it is memory-only.
    """

    def __init__(
        self,
        ctx: ExecutionContext = DEFAULT_CONTEXT,
        workers: int = 2,
        max_runs: int = 1024,
        retry_after_s: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")
        self.metrics = MetricsRegistry()
        self._declare_metrics()
        self._ctx = replace(ctx, metrics=self.metrics)
        self._cache = self._ctx.cache
        self._max_runs = max_runs
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._runs: Dict[str, Dict[str, object]] = {}

        self.events = EventBroker(max_channels=max(max_runs, 16))
        journal = (
            None
            if self._cache is None
            else os.path.join(self._cache.root, "queue", "journal.jsonl")
        )
        self._queue = JobQueue(journal_path=journal)
        self._recover_queue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-run-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    def _declare_metrics(self) -> None:
        m = self.metrics
        m.describe("http_requests_total", "HTTP requests by method, endpoint and status")
        m.describe("runs_submitted_total", "Accepted POST /v1/runs submissions by outcome")
        m.describe("runs_total", "Settled runs by final status")
        m.describe("runs_executed_total", "Runs that actually executed (not served from cache)")
        m.describe("cache_hits_total", "Whole-run result-cache hits")
        m.describe("cache_misses_total", "Whole-run result-cache misses")
        m.describe(
            "campaign_units_total",
            "Campaign units settled by status (fed by the campaign executor)",
        )
        m.describe("queue_depth", "Jobs queued and not yet dispatched to a worker")
        m.describe("runs_inflight", "Runs currently executing on a worker thread")
        m.declare_histogram("run_duration_seconds", "Run execution latency in seconds")
        # Pre-touch the series a dashboard always wants visible, so a
        # fresh scrape exposes explicit zeroes instead of absent metrics.
        m.inc("cache_hits_total", 0)
        m.inc("cache_misses_total", 0)
        m.inc("runs_executed_total", 0)
        m.set_gauge("queue_depth", 0)
        m.set_gauge("runs_inflight", 0)

    # ------------------------------------------------------------------ #
    # queue plumbing
    # ------------------------------------------------------------------ #
    def _recover_queue(self) -> None:
        """Re-submit jobs left unsettled by a previous process.

        Runs once at construction, before the worker threads start.
        Completed-but-unsettled jobs (the crash hit between the cache
        write and the journal settle) resolve instantly as cache hits;
        genuinely interrupted jobs re-execute.  A job whose spec no
        longer parses (e.g. a version upgrade changed the schema) is
        settled as ``error`` so it stops recovering forever.
        """
        for job in self._queue.recover():
            try:
                view, _created = self.submit(job.document, priority=job.priority)
            except (TypeError, ValueError):
                self._queue.settle(job.run_id, "error")
                continue
            except ServiceBusy:
                break  # remaining jobs stay journaled for the next restart
            if view["status"] == "done":
                # Served straight from the cache: journal the settlement
                # the previous process never got to write.
                self._queue.settle(str(view["run_id"]), "done")

    def _worker_loop(self) -> None:
        # pop() returns None either on timeout (loop and re-check) or —
        # once the queue is closed — only after the backlog is drained,
        # so shutdown lets already-queued runs finish, matching drain().
        while True:
            job = self._queue.pop(timeout=0.2)
            if job is None:
                if self._queue.closed:
                    return
                continue
            self.metrics.set_gauge("queue_depth", self._queue.depth)
            try:
                spec = spec_from_jsonable(job.document)
            except (TypeError, ValueError) as exc:
                self._settle_error(job.run_id, exc, retryable=False)
                continue
            self._run(job.run_id, spec)

    # ------------------------------------------------------------------ #
    # public operations (one per endpoint)
    # ------------------------------------------------------------------ #
    def _unsettled_locked(self) -> int:
        return sum(
            1 for e in self._runs.values() if e["status"] in ("queued", "running")
        )

    def health(self) -> Dict[str, object]:
        """Liveness document for ``GET /v1/health``.

        The ``status`` field is a three-state readiness signal for load
        balancers: ``"ok"`` (accepting work), ``"saturated"`` (alive,
        but the backlog is full so submissions get 429) and
        ``"draining"`` (finishing in-flight runs, rejecting new ones
        with 503).
        """
        with self._lock:
            by_status: Dict[str, int] = {}
            for entry in self._runs.values():
                status = str(entry["status"])
                by_status[status] = by_status.get(status, 0) + 1
            if self._draining:
                state = "draining"
            elif self._unsettled_locked() >= self._max_runs:
                state = "saturated"
            else:
                state = "ok"
        return {
            "status": state,
            "version": __version__,
            "cache": self._cache.root if self._cache is not None else None,
            "queue": {
                "depth": self._queue.depth,
                "journal": self._queue.journal_path,
            },
            "runs": by_status,
        }

    def scrape(self) -> str:
        """The Prometheus text-format document for ``GET /v1/metrics``."""
        self.metrics.set_gauge("queue_depth", self._queue.depth)
        return self.metrics.render()

    def submit(
        self, document: Dict[str, object], priority: int = DEFAULT_PRIORITY
    ) -> Tuple[Dict[str, object], bool]:
        """Handle ``POST /v1/runs``; returns ``(response, created)``.

        ``created`` is ``False`` when the spec was already known — either
        running/queued in this process or completed in the shared cache —
        in which case no new work is scheduled.  ``priority`` orders the
        queue (higher first; ties dispatch in submission order) and is
        pure execution context: it never affects the run id or payload.
        """
        spec = spec_from_jsonable(document)
        run_id = cache_key(spec)
        # One canonical document serves the registry entry and the queued
        # job; neither mutates it (the journal serialises it, the worker
        # rebuilds the spec from a copy).
        spec_document = spec.to_jsonable()

        def _reusable_entry() -> Optional[Dict[str, object]]:
            # An errored, transiently-failed (worker death, disk full)
            # or cancelled run is NOT reusable: a re-submission schedules
            # a fresh attempt instead of pinning the stale outcome.
            entry = self._runs.get(run_id)
            if (
                entry is not None
                and entry["status"] not in ("error", "cancelled")
                and not entry.get("retryable", False)
            ):
                return entry
            return None

        with self._lock:
            if self._draining:
                raise ServiceDraining(
                    "service is draining: in-flight runs are finishing, "
                    "no new submissions are accepted"
                )
            entry = _reusable_entry()
            if entry is not None:
                self.metrics.inc("runs_submitted_total", outcome="deduplicated")
                return self._view(run_id, entry), False
        # The result-cache lookup is disk I/O — do it outside the lock
        # so health/status requests are never stalled behind it.
        stored = None
        if self._cache is not None:
            stored = self._cache.get(run_id)
            # Whole-run entries carry both "spec" and "payload"; the
            # check keeps same-store unit de-dup documents (which have
            # only "payload") from masquerading as completed runs.
            if stored is not None and not ("payload" in stored and "spec" in stored):
                stored = None
            self.metrics.inc(
                "cache_hits_total" if stored is not None else "cache_misses_total"
            )
        with self._lock:
            if self._draining:  # drain may have started during the lookup
                raise ServiceDraining(
                    "service is draining: in-flight runs are finishing, "
                    "no new submissions are accepted"
                )
            entry = _reusable_entry()  # another thread may have raced us
            if entry is not None:
                self.metrics.inc("runs_submitted_total", outcome="deduplicated")
                return self._view(run_id, entry), False
            if stored is not None:
                entry = {
                    "status": "done",
                    "spec": spec_document,
                    "result": stored["payload"],
                    "error": None,
                    "cached": True,
                }
            else:
                backlog = self._unsettled_locked()
                if backlog >= self._max_runs:
                    raise ServiceBusy(
                        f"backlog full: {backlog} run(s) queued or running "
                        f"(max_runs={self._max_runs}); retry later"
                    )
                entry = {
                    "status": "queued",
                    "spec": spec_document,
                    "result": None,
                    "error": None,
                    "cached": False,
                    "priority": priority,
                }
            self._runs.pop(run_id, None)  # re-insert at the tail (newest)
            self._runs[run_id] = entry
            self._prune_locked()
        if stored is not None:
            self.metrics.inc("runs_submitted_total", outcome="cached")
            self.events.publish(
                run_id, "status", {"run_id": run_id, "status": "done", "cached": True},
                terminal=True,
            )
            return self._view(run_id, entry), False
        self.metrics.inc("runs_submitted_total", outcome="created")
        # A re-submitted errored/cancelled run left a *closed* channel
        # behind; drop it so the fresh lifecycle is actually published.
        self.events.reset(run_id)
        self.events.publish(
            run_id, "status",
            {"run_id": run_id, "status": "queued", "priority": priority},
        )
        self._queue.submit(run_id, spec_document, priority=priority)
        self.metrics.set_gauge("queue_depth", self._queue.depth)
        return self._view(run_id, entry), True

    def status(self, run_id: str) -> Optional[Dict[str, object]]:
        """Handle ``GET /v1/runs/<id>``; ``None`` when the id is unknown.

        The id comes straight from the URL: anything that is not a
        SHA-256 hex digest is unknown by construction and — crucially —
        must never reach the filesystem-backed cache.
        """
        if not _RUN_ID_RE.fullmatch(run_id):
            return None
        with self._lock:
            entry = self._runs.get(run_id)
            if entry is not None:
                return self._view(run_id, entry)
        # Not submitted through this process: a run id is a cache key, so
        # a shared cache can still answer for a previous server's work.
        if self._cache is not None:
            stored = self._cache.get(run_id)
            if stored is not None and "payload" in stored and "spec" in stored:
                entry = {
                    "status": "done",
                    "spec": stored["spec"],
                    "result": stored["payload"],
                    "error": None,
                    "cached": True,
                }
                with self._lock:
                    self._runs.setdefault(run_id, entry)
                    self._prune_locked()
                return self._view(run_id, entry)
        return None

    def cancel(self, run_id: str) -> Optional[Dict[str, object]]:
        """Handle ``DELETE /v1/runs/<id>``.

        Cancels a still-queued run and returns its view; returns
        ``None`` for an unknown id (404) and raises
        :class:`CancelConflict` (409) for a run that is already running
        or settled.
        """
        if not _RUN_ID_RE.fullmatch(run_id):
            return None
        with self._idle:
            entry = self._runs.get(run_id)
            if entry is None:
                return None
            status = str(entry["status"])
            if status != "queued" or not self._queue.cancel(run_id):
                # Either it was never queued, or a worker popped it in
                # the window between our check and the queue's.
                raise CancelConflict(
                    f"run is {status}: only queued runs can be cancelled"
                )
            self.metrics.inc("runs_total", status="cancelled")
            entry["status"] = "cancelled"
            view = self._view(run_id, entry)
            self._idle.notify_all()
        self.metrics.set_gauge("queue_depth", self._queue.depth)
        self.events.publish(
            run_id, "status", {"run_id": run_id, "status": "cancelled"}, terminal=True
        )
        return view

    def drain(self) -> None:
        """Enter graceful-drain mode (idempotent).

        In-flight and already-queued runs keep executing; every new
        :meth:`submit` raises :class:`ServiceDraining` (HTTP 503 with
        ``Retry-After``).  Pair with :meth:`wait_idle` to know when the
        last run has settled.
        """
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        """Whether the service is in graceful-drain mode."""
        with self._lock:
            return self._draining

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no run is queued or running (or ``timeout`` passes).

        Returns ``True`` when the service went idle, ``False`` on
        timeout with work still unsettled — callers shutting down decide
        whether to wait longer or abandon the stragglers.
        """
        with self._idle:
            return self._idle.wait_for(
                lambda: self._unsettled_locked() == 0, timeout=timeout
            )

    def shutdown(self) -> None:
        """Stop accepting work, finish queued/in-flight runs, stop workers."""
        self.drain()
        self._queue.close()
        for thread in self._workers:
            thread.join()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _prune_locked(self) -> None:
        """Drop the oldest settled entries beyond ``max_runs`` (lock held).

        Insertion order approximates age; queued/running entries are
        never dropped, so an in-flight run always stays addressable.
        """
        excess = len(self._runs) - self._max_runs
        if excess <= 0:
            return
        # Early-exit scan: once the registry is full every new entry
        # evicts about one, so stop at the first ``excess`` victims.
        settled = (rid for rid, e in self._runs.items() if e["status"] in _SETTLED)
        for run_id in list(islice(settled, excess)):
            del self._runs[run_id]

    def _settle(
        self,
        run_id: str,
        fields: Dict[str, object],
        event: Dict[str, object],
        *,
        duration: Optional[float] = None,
        executed: bool = False,
    ) -> None:
        """Settle a run with terminal ``fields`` (``status`` included).

        The order is the contract: journal the settle, update the
        metrics, make the terminal status visible (waking
        :meth:`wait_idle`), then publish the terminal ``event``.  Whoever
        observes a settled status or a terminal event therefore also sees
        the journal entry and every counter of that run.  ``duration``
        is ``None`` for a job rejected before it occupied a worker.
        """
        status = str(fields["status"])
        self._queue.settle(run_id, status)
        self.metrics.inc("runs_total", status=status)
        if executed:
            self.metrics.inc("runs_executed_total")
        if duration is not None:
            self.metrics.add_gauge("runs_inflight", -1)
            self.metrics.observe("run_duration_seconds", duration)
        with self._idle:
            entry = self._runs.get(run_id)
            if entry is not None:
                entry.update(fields)
            self._idle.notify_all()
        self.events.publish(run_id, "status", event, terminal=True)

    def _settle_error(
        self,
        run_id: str,
        exc: BaseException,
        retryable: bool,
        duration: Optional[float] = None,
    ) -> None:
        self._settle(
            run_id,
            {
                "status": "error",
                "error": {"type": type(exc).__name__, "message": str(exc)},
                "retryable": retryable,
            },
            {"run_id": run_id, "status": "error", "error": type(exc).__name__},
            duration=duration,
        )

    def _run(self, run_id: str, spec: RunSpec) -> None:
        with self._lock:
            entry = self._runs.get(run_id)
            if entry is None or entry["status"] != "queued":
                # Cancelled (or pruned) between pop and dispatch.
                self._queue.settle(run_id, "skipped")
                return
            entry["status"] = "running"
        self.events.publish(run_id, "status", {"run_id": run_id, "status": "running"})
        self.metrics.add_gauge("runs_inflight", 1)
        started = perf_counter()

        def _progress(done: int, total: int, record: Dict[str, object]) -> None:
            # Campaign unit-completion tick (verify/experiment kinds):
            # long runs stream their progress instead of going dark.
            self.events.publish(
                run_id,
                "progress",
                {
                    "done": done,
                    "total": total,
                    "unit_id": record.get("unit_id"),
                    "status": record.get("status"),
                },
            )

        try:
            if self._ctx.fault_plan is not None:
                # Named injection site of the service's own run loop
                # (worker-thread context: crash/hang faults would take
                # the whole server down, so only the recoverable kinds
                # are supported here).
                self._ctx.fault_plan.fire(
                    f"service.run:{run_id[:12]}", supported=("transient", "slow_io")
                )
            result = execute(spec, replace(self._ctx, progress=_progress))
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._settle_error(
                run_id, exc,
                retryable=bool(getattr(exc, "retryable", False)),
                duration=perf_counter() - started,
            )
            return
        self._settle(
            run_id,
            {
                "status": "done",
                "result": result.payload,
                "cached": result.cached,
                "retryable": not result.deterministic,
            },
            {"run_id": run_id, "status": "done", "cached": result.cached},
            duration=perf_counter() - started,
            executed=not result.cached,
        )

    def _view(self, run_id: str, entry: Dict[str, object]) -> Dict[str, object]:
        view: Dict[str, object] = {
            "run_id": run_id,
            "status": entry["status"],
            "cached": entry.get("cached", False),
        }
        if entry["status"] == "queued":
            view["priority"] = entry.get("priority", DEFAULT_PRIORITY)
            position = self._queue.position(run_id)
            if position is not None:
                view["queue_position"] = position
        if entry["status"] == "done":
            view["result"] = entry["result"]
        if entry["status"] == "error":
            view["error"] = entry["error"]
        return view


class RunRequestHandler(BaseHTTPRequestHandler):
    """Thin JSON shim between HTTP and a :class:`RunService`."""

    #: Injected by :func:`create_server`.
    service: RunService = None  # type: ignore[assignment]
    #: Silence per-request stderr logging unless enabled.
    verbose = False
    #: Emit one structured JSON log line per request to stderr.
    log_json = False

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection.  Headers and body (and
    #: each SSE frame) leave as separate small writes; with Nagle on, the
    #: second write waits for the client's delayed ACK, a fixed ~40 ms
    #: stall on every response.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------- #
    def handle_one_request(self) -> None:
        """Stamp the request start time for latency in structured logs."""
        self._request_started = perf_counter()
        super().handle_one_request()

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse a concrete path to a bounded metrics label.

        Raw paths embed 64-hex run ids (unbounded label cardinality
        would bloat the scrape), so ids are replaced by a placeholder.
        """
        path = urlsplit(path).path.rstrip("/") or "/"
        if path == "/v1/health":
            return "/v1/health"
        if path == "/v1/metrics":
            return "/v1/metrics"
        if path == "/v1/runs":
            return "/v1/runs"
        if path.startswith("/v1/runs/"):
            if path.endswith("/events"):
                return "/v1/runs/{id}/events"
            return "/v1/runs/{id}"
        return "other"

    def log_request(self, code: object = "-", size: object = "-") -> None:
        """Per-request accounting: metrics always, JSON log line opt-in."""
        try:
            status = int(str(code))
        except ValueError:  # pragma: no cover - non-numeric stdlib codes
            status = 0
        if self.service is not None:
            self.service.metrics.inc(
                "http_requests_total",
                method=self.command or "?",
                endpoint=self._route_label(self.path or "/"),
                status=status,
            )
        if self.log_json:
            started = getattr(self, "_request_started", None)
            document = {
                "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "client": self.client_address[0] if self.client_address else None,
                "method": self.command,
                "path": self.path,
                "status": status,
                "duration_ms": (
                    round((perf_counter() - started) * 1000.0, 3)
                    if started is not None
                    else None
                ),
            }
            print(json.dumps(document, sort_keys=True), file=sys.stderr, flush=True)
        if self.verbose:  # pragma: no cover - debug aid
            super().log_request(code, size)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Suppress stdlib stderr logging unless ``verbose`` is set."""
        if self.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(
        self,
        code: int,
        document: Dict[str, object],
        close: bool = False,
        retry_after_s: Optional[float] = None,
    ) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After takes integral seconds; round up so a client
            # honouring the header never retries *before* the advisory.
            self.send_header("Retry-After", str(max(1, int(-(-retry_after_s // 1)))))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, code: int, message: str, retry_after_s: Optional[float] = None
    ) -> None:
        # Error paths may not have consumed the request body; on a
        # keep-alive connection the unread bytes would be parsed as the
        # next request, so always close after an error response.
        # Back-pressure responses (429/503) carry the advisory delay both
        # as a Retry-After header and machine-parseably in the body.
        document: Dict[str, object] = {"error": message}
        if retry_after_s is not None:
            document["retry_after_s"] = retry_after_s
        self._send_json(code, document, close=True, retry_after_s=retry_after_s)

    def _read_json_body(self) -> Optional[Dict[str, object]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(400, "invalid Content-Length")
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_error_json(400, f"body must be 1..{MAX_BODY_BYTES} bytes")
            return None
        try:
            document = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(document, dict):
            self._send_error_json(400, "body must be a JSON object")
            return None
        return document

    def _request_path(self) -> str:
        """The routable path: query string split off, trailing ``/`` folded.

        ``GET /v1/health?probe=lb`` must route exactly like
        ``GET /v1/health`` — load balancers and scrapers routinely
        append query parameters, and the router must never 404 on them.
        """
        return urlsplit(self.path).path.rstrip("/") or "/"

    # -- endpoints ------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Serve health, metrics, run-status and SSE event-stream GETs."""
        path = self._request_path()
        if path == "/v1/health":
            self._send_json(200, self.service.health())
            return
        if path == "/v1/metrics":
            self._send_metrics()
            return
        if path.startswith("/v1/runs/") and path.endswith("/events"):
            run_id = path[len("/v1/runs/"):-len("/events")]
            self._send_event_stream(run_id)
            return
        if path.startswith("/v1/runs/"):
            run_id = path[len("/v1/runs/"):]
            view = self.service.status(run_id)
            if view is None:
                self._send_error_json(404, f"unknown run id {run_id!r}")
            else:
                self._send_json(200, view)
            return
        self._send_error_json(404, f"no such endpoint: GET {self.path}")

    def _send_metrics(self) -> None:
        body = self.service.scrape().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_event_stream(self, run_id: str) -> None:
        """Stream a run's lifecycle as server-sent events.

        The stream replays the run's full event history, then follows
        live events until a terminal status closes the channel.  The
        connection is always closed at the end (SSE responses have no
        Content-Length, so the framing *is* the close).
        """
        view = self.service.status(run_id)
        if view is None:
            self._send_error_json(404, f"unknown run id {run_id!r}")
            return
        channel = self.service.events.channel(run_id)
        if not channel.closed and view["status"] in _SETTLED:
            # The run settled before anyone published on its channel
            # (e.g. served from a previous process's cache): synthesise
            # the terminal event so subscribers see a complete story.
            channel.publish(
                "status",
                {"run_id": run_id, "status": view["status"], "cached": view.get("cached", False)},
                terminal=True,
            )
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            for event_id, event, data in channel.subscribe():
                self.wfile.write(format_sse(event_id, event, data))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            return  # client went away; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Accept a spec at ``/v1/runs`` and enqueue (or replay) the run."""
        if self._request_path() != "/v1/runs":
            self._send_error_json(404, f"no such endpoint: POST {self.path}")
            return
        document = self._read_json_body()
        if document is None:
            return
        # Accept either the bare spec document or {"spec": {...}} — the
        # wrapped form may carry execution context like "priority".
        priority = DEFAULT_PRIORITY
        if "spec" in document and isinstance(document["spec"], dict):
            raw_priority = document.get("priority", DEFAULT_PRIORITY)
            if not isinstance(raw_priority, int) or isinstance(raw_priority, bool):
                self._send_error_json(400, "priority must be an integer")
                return
            priority = raw_priority
            document = document["spec"]
        try:
            view, created = self.service.submit(document, priority=priority)
        except ServiceBusy as exc:
            self._send_error_json(
                429, str(exc), retry_after_s=self.service.retry_after_s
            )
            return
        except ServiceDraining as exc:
            self._send_error_json(
                503, str(exc), retry_after_s=self.service.retry_after_s
            )
            return
        except (TypeError, ValueError) as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(202 if created else 200, view)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        """Cancel a queued run at ``/v1/runs/<id>``."""
        path = self._request_path()
        if not path.startswith("/v1/runs/") or path.endswith("/events"):
            self._send_error_json(404, f"no such endpoint: DELETE {self.path}")
            return
        run_id = path[len("/v1/runs/"):]
        try:
            view = self.service.cancel(run_id)
        except CancelConflict as exc:
            self._send_error_json(409, str(exc))
            return
        if view is None:
            self._send_error_json(404, f"unknown run id {run_id!r}")
            return
        self._send_json(200, view)


def create_server(
    host: str = "127.0.0.1",
    port: int = 8421,
    *,
    service: Optional[RunService] = None,
    ctx: ExecutionContext = DEFAULT_CONTEXT,
    workers: int = 2,
    verbose: bool = False,
    log_json: bool = False,
) -> ThreadingHTTPServer:
    """Build a ready-to-run server (callers own ``serve_forever``).

    Without a ``service``, a :class:`RunService` is built from ``ctx``
    and ``workers``.  ``port=0`` binds an ephemeral port (useful for
    tests); read the bound address back from ``server.server_address``.
    """
    if service is None:
        service = RunService(ctx, workers=workers)
    handler = type(
        "BoundRunRequestHandler",
        (RunRequestHandler,),
        {"service": service, "verbose": verbose, "log_json": log_json},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8421,
    *,
    ctx: ExecutionContext = DEFAULT_CONTEXT,
    workers: int = 2,
    drain_grace_s: float = 30.0,
    verbose: bool = False,
    log_json: bool = False,
) -> int:
    """Run the API server until interrupted (the ``repro serve`` core).

    ``SIGTERM`` (the normal orchestrator stop signal) triggers a
    graceful drain: new submissions get 503 + ``Retry-After`` while
    in-flight runs are given ``drain_grace_s`` seconds to settle, then
    the listener stops and the process exits.  Every run executes
    under ``ctx`` (see :class:`RunService`).  ``log_json`` emits one
    structured JSON log line per request to stderr.
    """
    service = RunService(ctx, workers=workers)
    server = create_server(
        host, port, service=service, verbose=verbose, log_json=log_json
    )

    def _drain_and_stop(signum, frame) -> None:  # pragma: no cover - signal path
        service.drain()

        def _stop() -> None:
            service.wait_idle(timeout=drain_grace_s)
            server.shutdown()

        # shutdown() blocks until serve_forever returns, so it must run
        # off the signal-handler thread.
        threading.Thread(target=_stop, name="repro-drain", daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain_and_stop)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    bound_host, bound_port = server.server_address[:2]
    journal = service._queue.journal_path
    print(f"repro serve: listening on http://{bound_host}:{bound_port} "
          f"(workers={workers}, jobs={ctx.jobs}, "
          f"timeout={ctx.timeout if ctx.timeout is not None else 'none'}, "
          f"cache={service.health()['cache'] or 'disabled'}, "
          f"queue={'persistent:' + journal if journal else 'memory'})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        service.shutdown()
    return 0
