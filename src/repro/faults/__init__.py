"""Deterministic fault injection and the resilience layer it certifies.

The paper's subject is correctness under adversarial *scheduling*; this
package turns the same adversarial mindset on the execution stack
itself.  It provides:

* :class:`~repro.faults.plan.FaultPlan` — a seeded, deterministic map
  from named injection sites (campaign units, cache write paths, the
  service's run loop) to fault classes: worker **crash** (``os._exit``),
  worker **hang**, raised **transient** error, simulated death (**kill**)
  at named kill-points, and **slow I/O**.  Every site fires at most once
  (durable markers), so recovery is observable.
* :class:`~repro.faults.retry.RetryPolicy` — bounded attempts,
  exponential backoff, deterministic jitter, transient-vs-permanent
  classification built on the ``retryable`` error flag.
* :func:`~repro.faults.deadline.call_with_deadline` and
  :func:`~repro.faults.deadline.terminate_pool` — deadline enforcement
  with actual process termination, used by the campaign executor's
  per-unit watchdog and by single-shot runs.
* The exception vocabulary: :class:`TransientFaultError`,
  :class:`KillPoint` (a ``BaseException``, like real process death),
  :class:`DeadlineExceeded`.

The invariant the chaos suite (``tests/faults/``) certifies: a campaign
executed under **any** injected-and-recovered fault plan produces a
``summary.json`` byte-identical to the fault-free run, and the
content-addressed cache never serves a torn entry.  Fault plans are
execution context — never part of a spec, a run id or a cache key.
See ``docs/robustness.md`` for the full failure model.
"""

from .._lazy import lazy_exports
from .deadline import call_with_deadline, terminate_pool
from .errors import DeadlineExceeded, KillPoint, TransientFaultError

#: Public names mapped to the submodule that defines them, imported on
#: first access (PEP 562): every run may need a deadline, only chaos
#: runs and retrying campaigns need fault plans and retry policies.
_EXPORTS = {
    "FAULT_KINDS": ".plan",
    "FaultPlan": ".plan",
    "FaultyWorker": ".plan",
    "demo_worker": ".plan",
    "DEFAULT_TRANSIENT_TYPES": ".retry",
    "RetryPolicy": ".retry",
}

__all__ = sorted(
    [
        *_EXPORTS,
        "DeadlineExceeded",
        "KillPoint",
        "TransientFaultError",
        "call_with_deadline",
        "terminate_pool",
    ]
)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
