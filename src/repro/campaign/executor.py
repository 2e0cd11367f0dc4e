"""Chunked, crash-tolerant campaign execution.

The executor runs the units of a :class:`~repro.campaign.spec.Campaign`
through a worker callable, either serially (``jobs == 1``) or on a
:class:`concurrent.futures.ProcessPoolExecutor`.  Three properties are
guaranteed:

* **Determinism** — every unit depends only on its own spec (including
  its stable seed), and results are aggregated in grid order, so serial
  and parallel runs produce identical aggregates.
* **Crash tolerance** — a worker *exception* is caught in the worker and
  returned as an ``"error"`` record; a worker *process death* (signal,
  ``os._exit``) breaks the pool, which the executor rebuilds before
  retrying the affected units one by one, so a single poisoned unit is
  recorded as ``"crashed"`` without losing the rest of the campaign.
* **Resumability** — with a result store attached, units already in
  the campaign's unit cache are not re-executed.

On top of those, three resilience controls, all fields of the
:class:`~repro.campaign.context.ExecutionContext` (none of them changes
what a successful record contains):

* **Per-unit deadlines** (``timeout``) — a watchdog over the process
  pool kills a unit that overruns its deadline (the worker process is
  *terminated*, not merely abandoned), retries it once in isolation
  under a fresh deadline, and records ``"timeout"`` only if it overruns
  again — mirroring how crashes are isolated today.
* **Transient retry** (``retry``) — a :class:`~repro.faults.RetryPolicy`
  re-attempts transiently failed units inside the worker process with
  deterministic backoff before an ``"error"`` record is emitted.
* **Fault injection** (``fault_plan``) — a
  :class:`~repro.faults.FaultPlan` wraps the worker with per-unit
  injection sites, which is how the chaos suite certifies the two
  mechanisms above.

Workers must be module-level callables (picklable by reference) taking
the unit dictionary and returning a JSON-serialisable payload.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence

from ..faults.deadline import terminate_pool
from ..faults.plan import FaultyWorker
from .context import DEFAULT_CONTEXT, ExecutionContext
from .spec import Campaign, UnitSpec
from .store import ResultStore, fsync_file

__all__ = ["CampaignReport", "run_campaign", "execute_unit", "execute_batch"]

#: Worker signature: unit dict in, JSON-serialisable payload out.
Worker = Callable[[Dict[str, object]], Dict[str, object]]

#: Record fields added by execution on top of the unit spec fields.
_RESULT_FIELDS = ("status", "payload", "error", "duration_s")


def _worker_name(worker: Worker) -> str:
    """Stable worker identity used in unit de-duplication cache keys."""
    module = getattr(worker, "__module__", "?")
    name = getattr(worker, "__qualname__", getattr(worker, "__name__", repr(worker)))
    return f"{module}:{name}"


def _unit_fields(record: Dict[str, object]) -> Dict[str, object]:
    """The unit-spec part of a finished record (result fields stripped)."""
    return {k: v for k, v in record.items() if k not in _RESULT_FIELDS}


@dataclass
class CampaignReport:
    """Outcome of one campaign execution.

    Attributes:
        campaign: the executed campaign.
        records: one record per unit, sorted by grid index.
        resumed: unit ids restored from the result store instead of run.
        cached: unit ids served from the de-duplication cache instead
            of run (identical work already executed, possibly under a
            different campaign).
        summary_path: path of the written aggregate (with a store only).
    """

    campaign: Campaign
    records: List[Dict[str, object]] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    summary_path: Optional[str] = None

    @property
    def failures(self) -> List[Dict[str, object]]:
        """Records of units that did not finish successfully."""
        return [record for record in self.records if record.get("status") != "ok"]

    @property
    def payloads(self) -> List[Optional[Dict[str, object]]]:
        """Worker payloads in grid order (``None`` for failed units)."""
        return [record.get("payload") for record in self.records]

    def summary_bytes(self) -> bytes:
        """Deterministic aggregate serialisation (see :class:`ResultStore`)."""
        return ResultStore.summary_bytes(self.campaign, self.records)


def execute_unit(
    worker: Worker, unit: Dict[str, object], retry=None
) -> Dict[str, object]:
    """Run one unit, converting worker exceptions into an error record.

    With a ``retry`` policy (duck-typed
    :class:`~repro.faults.RetryPolicy`), transient failures are
    re-attempted in place — backoff and all — before an ``"error"``
    record is emitted; only the final attempt's outcome is recorded, so
    a recovered unit is indistinguishable (in the deterministic summary
    fields) from one that succeeded first try.
    """
    started = perf_counter()
    record = dict(unit)
    attempt = 1
    while True:
        try:
            payload = worker(unit)
            record.update(status="ok", payload=payload, error=None)
        except Exception as exc:  # noqa: BLE001 - error reporting is the point
            error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "retryable": bool(getattr(exc, "retryable", False)),
            }
            if (
                retry is not None
                and attempt < retry.max_attempts
                and retry.is_transient(error)
            ):
                sleep(retry.delay_s(str(unit.get("unit_id", "?")), attempt))
                attempt += 1
                continue
            record.update(status="error", payload=None, error=error)
        record["duration_s"] = perf_counter() - started
        return record


def execute_batch(
    worker: Worker, units: Sequence[Dict[str, object]], retry=None
) -> List[Dict[str, object]]:
    """Run a chunk of units inside one worker process (reduces IPC)."""
    return [execute_unit(worker, unit, retry) for unit in units]


def _crashed_record(unit: Dict[str, object], message: str) -> Dict[str, object]:
    record = dict(unit)
    record.update(
        status="crashed",
        payload=None,
        error={
            "type": "BrokenProcessPool",
            "message": message,
            "traceback": None,
            "retryable": True,
        },
        duration_s=0.0,
    )
    return record


def _timeout_record(unit: Dict[str, object], timeout: float) -> Dict[str, object]:
    record = dict(unit)
    record.update(
        status="timeout",
        payload=None,
        error={
            "type": "DeadlineExceeded",
            "message": f"unit exceeded its {timeout:g}s deadline and was killed",
            "traceback": None,
            "retryable": True,
        },
        duration_s=timeout,
    )
    return record


def _chunked(
    items: Sequence[UnitSpec], chunk_size: int
) -> List[List[UnitSpec]]:
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def make_pool(jobs: int) -> ProcessPoolExecutor:
    """A worker pool safe for the calling context.

    From the main thread the platform default start method is used (fork
    on Linux: fastest).  From any other thread — e.g. a campaign run
    dispatched by the HTTP service's worker pool — forking a
    multithreaded process can deadlock the child on locks held by
    sibling threads, so an explicit ``spawn`` context is used instead.
    """
    if threading.current_thread() is threading.main_thread():
        return ProcessPoolExecutor(max_workers=jobs)
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    )


class _Collector:
    """Routes finished records to the report, unit caches and callback."""

    def __init__(
        self, report: CampaignReport, ctx: ExecutionContext, worker_name: str, units
    ) -> None:
        self._report = report
        self._ctx = ctx
        self._worker_name = worker_name
        self._units = units
        self._done = len(report.records)

    def add(self, record: Dict[str, object]) -> None:
        ctx = self._ctx
        self._report.records.append(record)
        if record.get("status") == "ok":
            _put_unit(self._units, self._worker_name, record, durable=True)
            _put_unit(ctx.cache, self._worker_name, record)
        if ctx.metrics is not None:
            ctx.metrics.inc(
                "campaign_units_total", status=str(record.get("status", "?"))
            )
        self._done += 1
        if ctx.progress is not None:
            ctx.progress(self._done, self._report.campaign.num_units, record)


def _put_unit(cache, worker_name: str, record: Dict[str, object], durable=False) -> None:
    """Write an ``ok`` record to a unit cache, if any; ``durable`` fsyncs it."""
    if cache is not None:
        key = cache.unit_key(worker_name, _unit_fields(record))
        path = cache.put(key, {"status": "ok", "payload": record.get("payload")})
        if durable:
            fsync_file(path)


def _run_parallel(
    worker: Worker,
    pending: List[UnitSpec],
    ctx: ExecutionContext,
    collector: _Collector,
    chunk_size: Optional[int],
) -> None:
    jobs, retry = ctx.jobs, ctx.retry
    if chunk_size is None:
        # Aim for ~4 chunks per worker to balance scheduling slack
        # against per-chunk pickling overhead.
        chunk_size = max(1, len(pending) // (jobs * 4) or 1)
    # Longest-processing-time-first: simulation cost grows with the
    # step budget (samples * steps_factor * n * k), so scheduling the
    # heaviest cells first keeps the makespan near the optimum instead
    # of leaving the largest unit to run alone at the tail.
    pending = sorted(
        pending,
        key=lambda u: u.samples * u.steps_factor * u.n * max(u.k, 1),
        reverse=True,
    )
    chunks = _chunked(pending, chunk_size)
    pool = make_pool(jobs)
    try:
        futures = {
            pool.submit(execute_batch, worker, [u.as_dict() for u in chunk], retry): chunk
            for chunk in chunks
        }
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = futures.pop(future, None)
                if chunk is None:
                    # Already re-assigned while recovering from a broken
                    # pool earlier in this batch.
                    continue
                try:
                    for record in future.result():
                        collector.add(record)
                except BrokenProcessPool:
                    # The pool is poisoned: rebuild it, then isolate the
                    # crashing unit by retrying the chunk one unit at a
                    # time.  Chunks that already finished keep their
                    # results; only genuinely in-flight chunks re-run.
                    survivors = []
                    for other in list(futures):
                        other_chunk = futures.pop(other)
                        harvested = False
                        if other.done():
                            try:
                                for record in other.result():
                                    collector.add(record)
                                harvested = True
                            except BrokenProcessPool:
                                pass
                        if not harvested:
                            survivors.append(other_chunk)
                    pool.shutdown(wait=False)
                    pool = make_pool(jobs)
                    for unit in chunk:
                        isolated = pool.submit(execute_unit, worker, unit.as_dict(), retry)
                        try:
                            collector.add(isolated.result())
                        except BrokenProcessPool:
                            collector.add(
                                _crashed_record(
                                    unit.as_dict(),
                                    "worker process died while executing this unit",
                                )
                            )
                            pool.shutdown(wait=False)
                            pool = make_pool(jobs)
                    for chunk_ in survivors:
                        futures[
                            pool.submit(
                                execute_batch, worker, [u.as_dict() for u in chunk_], retry
                            )
                        ] = chunk_
    finally:
        pool.shutdown(wait=True)


#: Watchdog poll interval: the granularity at which overdue units are
#: detected (a hung unit is reaped within ``timeout + _WATCHDOG_POLL_S``
#: plus kill latency).
_WATCHDOG_POLL_S = 0.05


def _retry_in_isolation_with_deadline(
    worker: Worker,
    unit: UnitSpec,
    ctx: ExecutionContext,
    collector: _Collector,
    *,
    first_attempt_timed_out: bool,
) -> None:
    """One isolated retry of a killed/crashed unit under a fresh deadline.

    The unit gets a dedicated single-worker pool so a second overrun or
    crash poisons nothing else.  If it overruns again it is recorded as
    ``"timeout"``; if the worker dies again, ``"crashed"`` — exactly the
    crash-isolation contract, extended with a clock.
    """
    timeout = ctx.timeout
    pool = make_pool(1)
    try:
        future = pool.submit(execute_unit, worker, unit.as_dict(), ctx.retry)
        try:
            collector.add(future.result(timeout=timeout))
        except FuturesTimeoutError:
            terminate_pool(pool)
            collector.add(_timeout_record(unit.as_dict(), timeout))
        except BrokenProcessPool:
            if first_attempt_timed_out:
                # Terminated mid-kill rather than by its own doing —
                # still a deadline casualty, not a crash.
                collector.add(_timeout_record(unit.as_dict(), timeout))
            else:
                collector.add(
                    _crashed_record(
                        unit.as_dict(),
                        "worker process died while executing this unit",
                    )
                )
    finally:
        pool.shutdown(wait=False)


def _run_parallel_deadline(
    worker: Worker,
    pending: List[UnitSpec],
    ctx: ExecutionContext,
    collector: _Collector,
) -> None:
    """Pool execution with a per-unit deadline watchdog.

    Units are submitted one per task, windowed to the pool width, so
    every in-flight future corresponds to a unit that is genuinely
    *running* — its submission time is its start time, and the watchdog
    can attribute an overrun to the right unit.  On an overrun the whole
    pool is terminated (there is no way to kill a single busy worker
    through :class:`~concurrent.futures.ProcessPoolExecutor`),
    innocent in-flight units are requeued, and the overdue unit is
    retried once in isolation under a fresh deadline.
    """
    jobs, timeout, retry = ctx.jobs, ctx.timeout, ctx.retry
    queue = deque(
        sorted(
            pending,
            key=lambda u: u.samples * u.steps_factor * u.n * max(u.k, 1),
            reverse=True,
        )
    )
    pool = make_pool(jobs)
    inflight: Dict[object, tuple] = {}
    try:
        while queue or inflight:
            pool_broken = False
            while queue and len(inflight) < jobs:
                unit = queue.popleft()
                try:
                    future = pool.submit(execute_unit, worker, unit.as_dict(), retry)
                except BrokenProcessPool:
                    # A crash in an already-submitted unit broke the pool
                    # mid-refill.  Requeue this (never-started) unit and
                    # let the harvest below sort casualties from
                    # bystanders before the pool is rebuilt.
                    queue.appendleft(unit)
                    pool_broken = True
                    break
                inflight[future] = (unit, perf_counter())
            done, _ = wait(
                list(inflight), timeout=_WATCHDOG_POLL_S, return_when=FIRST_COMPLETED
            )
            crashed: List[UnitSpec] = []
            for future in done:
                unit, _started = inflight.pop(future)
                try:
                    collector.add(future.result())
                except BrokenProcessPool:
                    crashed.append(unit)
            now = perf_counter()
            timed_out: List[UnitSpec] = []
            overdue = any(now - started > timeout for _, started in inflight.values())
            if overdue:
                # Terminate every worker (a busy pool worker cannot be
                # interrupted individually), sort the casualties from
                # the innocent bystanders, and rebuild.
                terminate_pool(pool)
            if overdue or crashed or pool_broken:
                for future, (unit, started) in inflight.items():
                    if overdue and now - started > timeout:
                        timed_out.append(unit)
                    elif future.done():
                        try:
                            collector.add(future.result())
                        except (BrokenProcessPool, CancelledError):
                            queue.appendleft(unit)
                    else:
                        # Stranded on a dead pool: its result (if any)
                        # is discarded, the unit simply runs again.
                        queue.appendleft(unit)
                inflight.clear()
                pool.shutdown(wait=False)
                pool = make_pool(jobs)
            for unit in timed_out:
                _retry_in_isolation_with_deadline(
                    worker, unit, ctx, collector, first_attempt_timed_out=True
                )
            for unit in crashed:
                _retry_in_isolation_with_deadline(
                    worker, unit, ctx, collector, first_attempt_timed_out=False
                )
    finally:
        pool.shutdown(wait=False)


def run_campaign(
    campaign: Campaign,
    worker: Worker,
    ctx: ExecutionContext = DEFAULT_CONTEXT,
    *,
    chunk_size: Optional[int] = None,
) -> CampaignReport:
    """Execute every unit of ``campaign`` through ``worker`` under ``ctx``.

    Args:
        campaign: the work grid.
        worker: module-level callable (picklable) run once per unit.
        ctx: the execution context (see
            :class:`~repro.campaign.context.ExecutionContext`).  This
            layer honours ``jobs``, ``store``, ``progress``, ``cache``,
            ``timeout``, ``retry``, ``fault_plan`` and ``metrics``;
            ``refresh`` is applied by the callers above.
        chunk_size: units per process-pool task; defaults to roughly
            four chunks per worker.

    Returns:
        The report with records sorted by grid index.  When a store is
        attached the aggregate ``summary.json`` has been written.
    """
    report = CampaignReport(campaign=campaign)
    worker_name = _worker_name(worker)
    if ctx.fault_plan is not None:
        worker = FaultyWorker(worker, ctx.fault_plan)
    if "<lambda>" in worker_name or "<locals>" in worker_name:
        # Dynamically defined workers share a qualname (every lambda at one
        # scope is "<lambda>"): a store refuses them, and the cache is
        # disabled rather than serve one worker's payloads as another's.
        if ctx.store is not None:
            raise ValueError(f"a result store needs a module-level worker, not {worker_name!r}")
        if ctx.cache is not None:
            warnings.warn(
                f"unit de-duplication cache disabled: worker {worker_name!r} is "
                "dynamically defined and has no stable identity; use a "
                "module-level function to enable caching",
                RuntimeWarning,
                stacklevel=2,
            )
            ctx = replace(ctx, cache=None)
    store, cache, metrics = ctx.store, ctx.cache, ctx.metrics

    # Resume is de-duplication: the store's units first, then the cache.
    # A served record is rebuilt around *this* campaign's unit fields, so
    # the summary stays byte-identical; a cache hit is also stored.
    units = store.units(campaign.name) if store is not None else None
    sources = [(units, report.resumed, "resumed"), (cache, report.cached, "cached")]
    pending: List[UnitSpec] = []
    for unit in campaign.units:
        unit_dict = unit.as_dict()
        for source, served, label in sources:
            if source is None:
                continue
            document = source.get(source.unit_key(worker_name, unit_dict))
            if isinstance(document, dict) and document.get("status") == "ok":
                record = dict(unit_dict)
                record.update(status="ok", payload=document.get("payload"), error=None)
                record["duration_s"] = 0.0
                report.records.append(record)
                served.append(unit.unit_id)
                if metrics is not None:
                    metrics.inc("campaign_units_total", status=label)
                if source is cache:
                    _put_unit(units, worker_name, record, durable=True)
                break
        else:
            pending.append(unit)

    collector = _Collector(report, ctx, worker_name, units)
    if ctx.timeout is not None and pending:
        # Deadlines require killability, so even jobs=1 runs through a
        # (single-worker) pool the watchdog can terminate.
        _run_parallel_deadline(worker, pending, ctx, collector)
    elif ctx.jobs == 1 or len(pending) <= 1:
        for unit in pending:
            collector.add(execute_unit(worker, unit.as_dict(), ctx.retry))
    else:
        _run_parallel(worker, pending, ctx, collector, chunk_size)

    report.records.sort(key=lambda record: record.get("index", 0))
    if store is not None:
        report.summary_path = store.write_summary(campaign, report.records)
    return report
