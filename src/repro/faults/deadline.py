"""Deadline enforcement for work that cannot be interrupted in-thread.

Python threads cannot be killed, so a deadline on arbitrary compute is
only enforceable around a *process* boundary.  :func:`call_with_deadline`
runs a picklable callable in a fresh single-worker process pool, waits
up to the deadline, and on overrun **terminates** the worker process
(not merely abandons it) before raising :class:`DeadlineExceeded` — a
hung computation never outlives its deadline by more than the kill
latency.

The campaign executor uses the sibling :func:`terminate_pool` directly
for its per-unit watchdog (see
:mod:`repro.campaign.executor`); this module is the standalone form for
single-shot runs (``simulate`` / ``batch_sweep`` specs, which execute
in-process otherwise).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple, TypeVar

from .errors import DeadlineExceeded

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["call_with_deadline", "terminate_pool"]

T = TypeVar("T")


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a process pool: SIGTERM every worker, cancel the rest.

    ``ProcessPoolExecutor.shutdown`` alone *waits* for running work —
    useless against a hung worker.  Terminating the worker processes
    breaks the pool, which surfaces as ``BrokenProcessPool`` on any
    in-flight future; callers treat that exactly like a worker crash.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def call_with_deadline(
    func: Callable[..., T],
    args: Tuple = (),
    *,
    timeout: Optional[float] = None,
    what: str = "call",
) -> T:
    """Run ``func(*args)`` in a killable worker under a deadline.

    ``func`` and ``args`` must be picklable (``func`` by reference: a
    module-level callable).  With ``timeout=None`` the call runs inline
    — zero overhead on the fault-free path.

    Raises:
        DeadlineExceeded: the deadline elapsed; the worker process has
            been terminated before this is raised.
    """
    if timeout is None:
        return func(*args)
    if timeout <= 0:
        raise ValueError("timeout must be > 0 (or None to disable)")
    # Imported here, on the deadline path only: the executor imports this
    # package for its own watchdog (a module-level import would be
    # circular), and the fault-free path needs no process pool.
    from concurrent.futures import TimeoutError as FuturesTimeoutError

    from ..campaign.executor import make_pool

    pool = make_pool(1)
    try:
        future = pool.submit(func, *args)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            terminate_pool(pool)
            raise DeadlineExceeded(
                f"{what} exceeded its {timeout:g}s deadline and was killed",
                timeout_s=timeout,
            ) from None
    finally:
        pool.shutdown(wait=False)
