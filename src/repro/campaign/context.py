"""The execution context: every execution knob, in one frozen object.

A :class:`~repro.runs.spec.RunSpec` says *what* to compute; an
:class:`ExecutionContext` says *how*: how many processes, where to
persist, what to cache, how long to wait, what to observe and what to
inject.  Every layer — :func:`repro.runs.execute.execute`, the campaign
executor, the verification grid, the experiments E1-E8, the HTTP
service and the CLI — takes the one ``ctx`` object instead of its own
copy of the keyword list, so a new knob is one field here, its
consumer, and its CLI flag.

The invariant the whole repository rests on lives here too: no field
ever enters a spec, a run id, a cache key or a ``summary.json`` byte.
Changing any of them changes how fast a run completes, what side
artifacts it writes and what it reports while running — never what the
result means.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..faults import FaultPlan, RetryPolicy
    from ..runs.cache import ResultCache

__all__ = ["DEFAULT_CONTEXT", "ExecutionContext", "ProgressCallback"]

#: Progress callback: (completed, total, latest record).
ProgressCallback = Callable[[int, int, Dict[str, object]], None]


@dataclass(frozen=True)
class ExecutionContext:
    """How a run executes (never what it computes).

    Construction validates the knobs and coerces path-valued ``store``
    and ``cache`` into a :class:`~repro.campaign.store.ResultStore` /
    :class:`~repro.runs.cache.ResultCache` carrying ``fault_plan``'s
    write-path injection sites; use :func:`dataclasses.replace` to
    derive a variant.  A context never crosses a process boundary: pool
    workers receive only the unit, the retry policy and the wrapped
    worker.

    Attributes:
        jobs: worker processes for campaign-backed runs (parallelism
            *across* units); ``1`` runs in-process.
        store: campaign result store (instance or root directory):
            enables resume through a per-campaign unit cache and writes
            ``summary.json``; needs a module-level campaign worker.
            With a store, :func:`~repro.runs.execute.execute` skips the
            whole-run cache so the store's artifacts are actually written
            (unit-level de-duplication still applies).
        progress: callback invoked after every settled campaign unit.
        cache: result cache (instance, duck-typed equivalent or
            directory).  Serves whole-run hits and de-duplicates campaign
            units across campaigns, keyed on the worker identity and the
            unit's semantic fields; ``None`` disables caching.
        refresh: execute even on a cache hit (unit lookups miss too) and
            overwrite the stored results.
        timeout: deadline in seconds.  Per unit for campaign-backed
            kinds: execution moves to a killable pool (even at
            ``jobs=1``), and an overrunning unit is killed, retried
            once in isolation and recorded as ``"timeout"`` only if it
            overruns again.  Whole-run for
            ``simulate`` / ``batch_sweep``, which then execute in a
            killable worker process and raise
            :class:`~repro.faults.DeadlineExceeded` on overrun.
        retry: :class:`~repro.faults.RetryPolicy` (duck-typed):
            transiently failing units are re-attempted in the worker
            with deterministic backoff before an error is recorded.
        fault_plan: :class:`~repro.faults.FaultPlan` arming deterministic
            fault injection (chaos testing only): it wraps campaign
            workers with per-unit injection sites, and path-given
            stores and caches inherit its write-path sites.
        metrics: duck-typed sink with an ``inc(name, **labels)`` method
            (e.g. :class:`repro.service.metrics.MetricsRegistry`); every
            settled unit bumps ``campaign_units_total`` labelled
            ``ok``/``error``/``crashed``/``timeout``, or
            ``resumed``/``cached`` when served without executing.
    """

    jobs: int = 1
    store: Union[str, ResultStore, None] = None
    progress: Optional[ProgressCallback] = None
    cache: Union[str, "ResultCache", None] = None
    refresh: bool = False
    timeout: Optional[float] = None
    retry: Optional["RetryPolicy"] = None
    fault_plan: Optional["FaultPlan"] = None
    metrics: Optional[object] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 (or None to disable)")
        if isinstance(self.store, (str, os.PathLike)):
            store = ResultStore(os.fspath(self.store), fault_plan=self.fault_plan)
            object.__setattr__(self, "store", store)
        if isinstance(self.cache, (str, os.PathLike)):
            # Imported lazily: repro.runs itself imports this package.
            from ..runs.cache import ResultCache

            cache = ResultCache(os.fspath(self.cache), fault_plan=self.fault_plan)
            object.__setattr__(self, "cache", cache)


#: The all-defaults context: serial, no store, no cache, no deadline.
DEFAULT_CONTEXT = ExecutionContext()
