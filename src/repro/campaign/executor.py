"""Crash-tolerant campaign execution.

The executor runs the units of a :class:`~repro.campaign.spec.Campaign`
through a worker callable, either serially in-process (``jobs == 1``,
no deadline) or on a :class:`concurrent.futures.ProcessPoolExecutor`
that takes one unit per task.  Three properties are guaranteed:

* **Determinism** — every unit depends only on its own spec (including
  its stable seed), and results are aggregated in grid order, so serial
  and parallel runs produce identical aggregates.
* **Crash tolerance** — a worker *exception* is caught in the worker and
  returned as an ``"error"`` record; a worker *process death* (signal,
  ``os._exit``) breaks the pool, which the executor rebuilds before
  requeueing the bystanders and retrying each unit that may have been
  running in isolation, so a single poisoned unit is recorded as
  ``"crashed"`` without losing the rest of the campaign.
* **Resumability** — with a result store attached, units already in
  the campaign's unit cache are not re-executed.

:func:`run_campaigns` runs several campaigns at once: each serves its
store and cache hits first, then every pending unit of every campaign
shares one pool (longest first across campaigns, so no campaign waits
at its own barrier), and each campaign's report is handed back as soon
as its last unit settles.  :func:`run_campaign` is the one-campaign
case.

On top of those, three resilience controls, all fields of the
:class:`~repro.campaign.context.ExecutionContext` (none of them changes
what a successful record contains):

* **Per-unit deadlines** (``timeout``) — a watchdog over the same pool
  kills a unit that overruns its deadline (the worker process is
  *terminated*, not merely abandoned), retries it once in isolation
  under a fresh deadline, and records ``"timeout"`` only if it overruns
  again — the crash isolation above, with a clock.
* **Transient retry** (``retry``) — a :class:`~repro.faults.RetryPolicy`
  re-attempts transiently failed units inside the worker process with
  deterministic backoff before an ``"error"`` record is emitted.
* **Fault injection** (``fault_plan``) — a
  :class:`~repro.faults.FaultPlan` wraps the worker with per-unit
  injection sites, which is how the chaos suite certifies the two
  mechanisms above.

Workers must be module-level callables (picklable by reference) taking
the unit dictionary and returning a JSON-serialisable payload.  A worker
that imports its engines where it runs may name them in an
``engine_modules`` attribute: a pool imports them in the parent before
it forks, so its workers inherit them instead of each importing them.
"""

from __future__ import annotations

import threading
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from time import perf_counter, sleep
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .context import DEFAULT_CONTEXT, ExecutionContext
from .spec import Campaign, UnitSpec
from .store import ResultStore, fsync_file

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from concurrent.futures import ProcessPoolExecutor

# The process pool (``concurrent.futures``, ``multiprocessing``) and the
# fault layer are imported inside the functions that use them: a serial
# campaign without a deadline or a fault plan never loads them.

__all__ = ["CampaignReport", "run_campaign", "run_campaigns", "execute_unit", "execute_batch"]

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
    """Run several units in order, each through :func:`execute_unit`.

    The executor does not call this: it submits one unit per pool task.
    It stays as the list form of :func:`execute_unit` because the
    ``perfbench`` tracer wraps it by name.
    """
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


def make_pool(jobs: int) -> ProcessPoolExecutor:
    """A worker pool safe for the calling context.

    From the main thread the platform default start method is used (fork
    on Linux: fastest).  From any other thread — e.g. a campaign run
    dispatched by the HTTP service's worker pool — forking a
    multithreaded process can deadlock the child on locks held by
    sibling threads, so an explicit ``spawn`` context is used instead.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if threading.current_thread() is threading.main_thread():
        return ProcessPoolExecutor(max_workers=jobs)
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    )


class _CampaignRun:
    """One campaign being executed: its report, pending units and worker.

    Construction serves the store's and the cache's hits; :meth:`add`
    routes every finished record to the report, the unit caches, the
    metrics and the progress callback, and once the last unit has
    settled the report is sorted, its summary written and
    ``on_settled`` called with it.
    """

    def __init__(
        self,
        campaign: Campaign,
        worker: Worker,
        ctx: ExecutionContext,
        on_settled: Optional[Callable[[CampaignReport], None]] = None,
    ) -> None:
        report = CampaignReport(campaign=campaign)
        worker_name = _worker_name(worker)
        #: modules the worker runs, imported before a pool forks.
        self.engine_modules: Tuple[str, ...] = tuple(getattr(worker, "engine_modules", ()))
        if ctx.fault_plan is not None:
            from ..faults.plan import FaultyWorker

            worker = FaultyWorker(worker, ctx.fault_plan)
        if "<lambda>" in worker_name or "<locals>" in worker_name:
            # Dynamically defined workers share a qualname (every lambda at one
            # scope is "<lambda>"): a store refuses them, and the cache is
            # disabled rather than serve one worker's payloads as another's.
            if ctx.store is not None:
                raise ValueError(
                    f"a result store needs a module-level worker, not {worker_name!r}"
                )
            if ctx.cache is not None:
                warnings.warn(
                    f"unit de-duplication cache disabled: worker {worker_name!r} is "
                    "dynamically defined and has no stable identity; use a "
                    "module-level function to enable caching",
                    RuntimeWarning,
                    stacklevel=2,
                )
                ctx = replace(ctx, cache=None)
        self.report = report
        self.worker = worker
        self._ctx = ctx
        self._worker_name = worker_name
        self._on_settled = on_settled
        store, cache, metrics = ctx.store, ctx.cache, ctx.metrics

        # Resume is de-duplication: the store's units first, then the cache.
        # A served record is rebuilt around *this* campaign's unit fields, so
        # the summary stays byte-identical; a cache hit is also stored.
        units = store.units(campaign.name) if store is not None else None
        self._units = units
        sources = [(units, report.resumed, "resumed"), (cache, report.cached, "cached")]
        self.pending: List[UnitSpec] = []
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
                self.pending.append(unit)

    def add(self, record: Dict[str, object]) -> None:
        """Route one finished record; settle the campaign after its last unit."""
        ctx = self._ctx
        report = self.report
        report.records.append(record)
        if record.get("status") == "ok":
            _put_unit(self._units, self._worker_name, record, durable=True)
            _put_unit(ctx.cache, self._worker_name, record)
        if ctx.metrics is not None:
            ctx.metrics.inc(
                "campaign_units_total", status=str(record.get("status", "?"))
            )
        done, total = len(report.records), report.campaign.num_units
        if ctx.progress is not None:
            ctx.progress(done, total, record)
        if done == total:
            self.settle()

    def settle(self) -> None:
        """Sort the records, write the summary and hand the report on."""
        report = self.report
        report.records.sort(key=lambda record: record.get("index", 0))
        if self._ctx.store is not None:
            report.summary_path = self._ctx.store.write_summary(
                report.campaign, report.records
            )
        if self._on_settled is not None:
            self._on_settled(report)


def _put_unit(cache, worker_name: str, record: Dict[str, object], durable=False) -> None:
    """Write an ``ok`` record to a unit cache, if any; ``durable`` fsyncs it."""
    if cache is not None:
        key = cache.unit_key(worker_name, _unit_fields(record))
        path = cache.put(key, {"status": "ok", "payload": record.get("payload")})
        if durable:
            fsync_file(path)


#: Watchdog poll interval under a deadline: the granularity at which
#: overdue units are detected (a hung unit is reaped within
#: ``timeout + _WATCHDOG_POLL_S`` plus kill latency).
_WATCHDOG_POLL_S = 0.05


def _retry_in_isolation(
    run: _CampaignRun,
    unit: UnitSpec,
    ctx: ExecutionContext,
    *,
    first_attempt_timed_out: bool,
) -> None:
    """Isolated retries of a crashed (or killed) unit.

    The unit gets a dedicated single-worker pool so a crash or overrun
    poisons nothing else.  A unit whose pool broke may never have
    started (a worker takes a submitted unit only when it is free), so
    its first isolated attempt may be its first run: a worker death
    there gets one more isolated attempt, and the unit is recorded as
    ``"crashed"`` only when that one dies too.  Under a deadline, a
    fresh one applies and an overrun is recorded as ``"timeout"``.
    """
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    from ..faults.deadline import terminate_pool

    timeout = ctx.timeout
    for attempt in (1, 2):
        pool = make_pool(1)
        future = pool.submit(execute_unit, run.worker, unit.as_dict(), ctx.retry)
        try:
            run.add(future.result(timeout=timeout))
            return
        except FuturesTimeoutError:
            terminate_pool(pool)
            run.add(_timeout_record(unit.as_dict(), timeout))
            return
        except BrokenProcessPool:
            if first_attempt_timed_out:
                # Terminated mid-kill rather than by its own doing —
                # still a deadline casualty, not a crash.
                run.add(_timeout_record(unit.as_dict(), timeout))
                return
            if attempt == 2:
                run.add(
                    _crashed_record(
                        unit.as_dict(),
                        "worker process died while executing this unit",
                    )
                )
        finally:
            # Join a finished pool so no manager thread outlives it (one
            # still running at interpreter exit can fail there); never
            # block on a unit still running after an interrupt.
            pool.shutdown(wait=future.done())


def _unit_cost(task: Tuple[_CampaignRun, UnitSpec]) -> int:
    """Static cost estimate of one unit: its step budget."""
    unit = task[1]
    return unit.samples * unit.steps_factor * unit.n * max(unit.k, 1)


def _run_pool(tasks: List[Tuple[_CampaignRun, UnitSpec]], ctx: ExecutionContext) -> None:
    """Process-pool execution, one unit per task, with crash isolation.

    ``tasks`` pairs each pending unit with its campaign; units of every
    campaign share the pool.  The modules the workers run are imported
    first, so forked workers inherit them.  Units are submitted
    longest-first, each worker with one more unit queued behind the one
    it runs, so no worker waits for the parent between two units.  A
    worker death breaks the pool; it is rebuilt, innocent in-flight
    units are requeued, and each broken unit is retried once in
    isolation.

    With a deadline (``ctx.timeout``) the window is the pool width
    instead, so every in-flight future corresponds to a unit that is
    genuinely *running*: its submission time is its start time.  A
    watchdog polls the in-flight units.  On an overrun the whole pool is
    terminated (there is no way to kill a single busy worker through
    :class:`~concurrent.futures.ProcessPoolExecutor`) and the overdue
    unit is retried in isolation under a fresh deadline.
    """
    from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
    from concurrent.futures.process import BrokenProcessPool

    from ..faults.deadline import terminate_pool

    jobs, timeout, retry = ctx.jobs, ctx.timeout, ctx.retry
    poll = None if timeout is None else _WATCHDOG_POLL_S
    window = 2 * jobs if timeout is None else jobs
    for module in sorted({name for run, _ in tasks for name in run.engine_modules}):
        __import__(module)  # unlike importlib's, shows in ``-X importtime``
    # Longest-processing-time-first: simulation cost grows with the
    # step budget (samples * steps_factor * n * k), so scheduling the
    # heaviest cells first keeps the makespan near the optimum instead
    # of leaving the largest unit to run alone at the tail.
    queue = deque(sorted(tasks, key=_unit_cost, reverse=True))
    pool = make_pool(jobs)
    inflight: Dict[object, tuple] = {}
    try:
        while queue or inflight:
            pool_broken = False
            while queue and len(inflight) < window:
                run, unit = task = queue.popleft()
                try:
                    future = pool.submit(execute_unit, run.worker, unit.as_dict(), retry)
                except BrokenProcessPool:
                    # A crash in an already-submitted unit broke the pool
                    # mid-refill.  Requeue this (never-started) unit and
                    # let the harvest below sort casualties from
                    # bystanders before the pool is rebuilt.
                    queue.appendleft(task)
                    pool_broken = True
                    break
                inflight[future] = (task, perf_counter())
            done, _ = wait(list(inflight), timeout=poll, return_when=FIRST_COMPLETED)
            crashed: List[Tuple[_CampaignRun, UnitSpec]] = []
            for future in [future for future in inflight if future in done]:
                task, _started = inflight.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool:
                    crashed.append(task)
                else:
                    task[0].add(record)
            # Workers take units in submission order, so only the first
            # ``jobs`` broken units can have been running: the others
            # never started, and simply run again.
            queue.extendleft(reversed(crashed[jobs:]))
            del crashed[jobs:]
            now = perf_counter()
            timed_out: List[Tuple[_CampaignRun, UnitSpec]] = []
            overdue = timeout is not None and any(
                now - started > timeout for _, started in inflight.values()
            )
            if overdue:
                # Terminate every worker (a busy pool worker cannot be
                # interrupted individually), sort the casualties from
                # the innocent bystanders, and rebuild.
                terminate_pool(pool)
            if overdue or crashed or pool_broken:
                for future, (task, started) in inflight.items():
                    if overdue and now - started > timeout:
                        timed_out.append(task)
                    elif future.done():
                        try:
                            record = future.result()
                        except (BrokenProcessPool, CancelledError):
                            queue.appendleft(task)
                        else:
                            task[0].add(record)
                    else:
                        # Stranded on a dead pool: its result (if any)
                        # is discarded, the unit simply runs again.
                        queue.appendleft(task)
                inflight.clear()
                pool.shutdown(wait=False)
                pool = make_pool(jobs)
            for run, unit in timed_out:
                _retry_in_isolation(run, unit, ctx, first_attempt_timed_out=True)
            for run, unit in crashed:
                _retry_in_isolation(run, unit, ctx, first_attempt_timed_out=False)
    finally:
        # As in _retry_in_isolation: join only when nothing is running.
        pool.shutdown(wait=not inflight)


def run_campaign(
    campaign: Campaign,
    worker: Worker,
    ctx: ExecutionContext = DEFAULT_CONTEXT,
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

    Returns:
        The report with records sorted by grid index.  When a store is
        attached the aggregate ``summary.json`` has been written.
    """
    return run_campaigns([(campaign, worker)], ctx)[0]


def run_campaigns(
    campaigns: Sequence[Tuple[Campaign, Worker]],
    ctx: ExecutionContext = DEFAULT_CONTEXT,
    on_report: Optional[Callable[[int, CampaignReport], None]] = None,
) -> List[CampaignReport]:
    """Execute several ``(campaign, worker)`` pairs, their units on one pool.

    Each campaign is executed exactly as :func:`run_campaign` would,
    with the same records, reports and summaries; only the schedule is
    shared.  Every campaign's store and cache hits are served before any
    unit runs.  The pending units of all campaigns then run serially in
    campaign order, or — with a deadline, or ``jobs > 1`` and more than
    one pending unit — through one pool, longest first across
    campaigns, each unit keeping its crash isolation, deadline and
    retries.

    ``on_report(index, report)`` is called once per campaign (``index``
    into ``campaigns``) as soon as its last unit has settled and its
    summary is written, so a caller can finish one campaign's result
    while others still run.
    """
    runs = [
        _CampaignRun(campaign, worker, ctx, on_report and partial(on_report, index))
        for index, (campaign, worker) in enumerate(campaigns)
    ]
    tasks = [(run, unit) for run in runs for unit in run.pending]
    for run in runs:
        if not run.pending:
            run.settle()
    if tasks and (ctx.timeout is not None or (ctx.jobs > 1 and len(tasks) > 1)):
        # Deadlines require killability, so even jobs=1 runs through a
        # (single-worker) pool the watchdog can terminate.
        _run_pool(tasks, ctx)
    else:
        for run, unit in tasks:
            run.add(execute_unit(run.worker, unit.as_dict(), ctx.retry))
    return [run.report for run in runs]
