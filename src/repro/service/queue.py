"""Persistent, prioritised job queue behind the HTTP service.

The queue orders pending runs by ``(priority desc, submission order)``
and — when given a journal path — records every lifecycle transition as
one JSON line, append-only::

    {"event": "submit", "run_id": ..., "spec": {...}, "priority": 2, "seq": 7}
    {"event": "settle", "run_id": ..., "status": "done", "seq": 8}
    {"event": "cancel", "run_id": ..., "seq": 9}

so a restarted server can :meth:`~JobQueue.recover` the jobs that were
queued or running when the previous process died and simply re-submit
them.  Because run ids are content-addressed (the SHA-256 of the spec),
replaying a job that *did* complete before the crash is free: its
re-execution is answered by the shared result cache.

Priority and queue position are **execution context**: they decide when
a run executes, never what it produces, so they are not part of the
spec, the run id or any cache key.

The journal tolerates a torn trailing line (the crash may have happened
mid-append); any torn line simply drops the event it would have carried,
which the recovery semantics absorb — a lost ``settle`` re-runs a job
into a cache hit, a lost ``submit`` means the client never got an
acknowledgement and will retry.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Job", "JobQueue", "DEFAULT_PRIORITY"]

#: Priority assigned when a submission does not name one.
DEFAULT_PRIORITY = 0


@dataclass(frozen=True)
class Job:
    """One queued run: the spec document plus its scheduling context."""

    run_id: str
    document: Dict[str, object]
    priority: int = DEFAULT_PRIORITY
    seq: int = 0

    def sort_key(self) -> tuple:
        """Heap key: higher priority first, then submission order."""
        return (-self.priority, self.seq)


@dataclass
class _Entry:
    job: Job
    state: str = "queued"  # queued | running


class JobQueue:
    """Priority queue with optional JSONL journal persistence.

    Only *unsettled* (queued or running) jobs are held in memory: a
    settled or cancelled job is forgotten at once, so memory and the
    :attr:`depth`/:meth:`position` scans stay proportional to the
    backlog, not to every run ever submitted.  The journal is the one
    durable record of the history.

    Args:
        journal_path: append-only journal file; ``None`` keeps the queue
            in memory only (no crash-resume).  The parent directory is
            created on first write.
        fsync: force each journal append to disk.  Defaults to ``False``
            — the durability unit here is the *queue*, and losing the
            last line on a power cut only costs one resubmission.
    """

    def __init__(self, journal_path: Optional[str] = None, fsync: bool = False) -> None:
        self.journal_path = journal_path
        self._fsync = fsync
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._heap: List[tuple] = []
        self._entries: Dict[str, _Entry] = {}
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # journal
    # ------------------------------------------------------------------ #
    def _journal(self, event: Dict[str, object]) -> None:
        """Append one event line (lock held by callers)."""
        if self.journal_path is None:
            return
        os.makedirs(os.path.dirname(self.journal_path) or ".", exist_ok=True)
        line = json.dumps(event, sort_keys=True) + "\n"
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())

    def recover(self) -> List[Job]:
        """Unsettled jobs from the journal, in original submission order.

        Replays the journal (tolerating a torn trailing line) and
        returns every job whose last event is a ``submit`` — i.e. it was
        queued or running when the previous process stopped.  The caller
        re-submits them; this method does not mutate queue state.
        """
        if self.journal_path is None or not os.path.exists(self.journal_path):
            return []
        submitted: Dict[str, Job] = {}
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    # Torn trailing line from a crash mid-append: the
                    # event it carried is simply lost (see module doc).
                    continue
                run_id = event.get("run_id")
                if not isinstance(run_id, str):
                    continue
                kind = event.get("event")
                if kind == "submit" and isinstance(event.get("spec"), dict):
                    submitted[run_id] = Job(
                        run_id=run_id,
                        document=event["spec"],
                        priority=int(event.get("priority", DEFAULT_PRIORITY)),
                        seq=int(event.get("seq", 0)),
                    )
                elif kind in ("settle", "cancel"):
                    submitted.pop(run_id, None)
        return sorted(submitted.values(), key=lambda job: job.seq)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def submit(
        self, run_id: str, document: Dict[str, object], priority: int = DEFAULT_PRIORITY
    ) -> Job:
        """Enqueue a run; returns the queued :class:`Job`.

        A run id that is already queued or running is not enqueued twice
        — the existing job is returned unchanged (idempotent submits are
        what content-addressed run ids are for).  A previously settled
        or cancelled id is re-enqueued fresh.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            entry = self._entries.get(run_id)
            if entry is not None:
                return entry.job
            self._seq += 1
            job = Job(
                run_id=run_id,
                document=document,
                priority=priority,
                seq=self._seq,
            )
            self._entries[run_id] = _Entry(job=job)
            heapq.heappush(self._heap, job.sort_key() + (run_id,))
            self._journal(
                {
                    "event": "submit",
                    "run_id": run_id,
                    "spec": document,
                    "priority": priority,
                    "seq": self._seq,
                }
            )
            self._available.notify()
            return job

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the highest-priority job, blocking up to ``timeout``.

        Returns ``None`` on timeout or once the queue is closed and
        drained.  The popped job is marked *running*; the caller must
        eventually :meth:`settle` it.
        """
        with self._lock:
            while True:
                job = self._pop_ready_locked()
                if job is not None:
                    return job
                if self._closed:
                    return None
                if not self._available.wait(timeout=timeout):
                    return None

    def _pop_ready_locked(self) -> Optional[Job]:
        while self._heap:
            _, seq, run_id = heapq.heappop(self._heap)
            entry = self._entries.get(run_id)
            # Cancelled heap residue (entry gone) and superseded residue
            # (the id was cancelled, then re-submitted under a new seq)
            # are skipped lazily.
            if entry is not None and entry.state == "queued" and entry.job.seq == seq:
                entry.state = "running"
                return entry.job
        return None

    def settle(self, run_id: str, status: str) -> None:
        """Finish a popped job (``done``/``error``): journal it, forget it."""
        with self._lock:
            self._entries.pop(run_id, None)
            self._journal({"event": "settle", "run_id": run_id, "status": status})

    def cancel(self, run_id: str) -> bool:
        """Cancel a *queued* job; ``False`` if it is not currently queued.

        A running job cannot be cancelled (its worker thread cannot be
        killed safely); settled and unknown ids are not cancellable
        either — the caller distinguishes those cases via its own run
        registry.
        """
        with self._lock:
            entry = self._entries.get(run_id)
            if entry is None or entry.state != "queued":
                return False
            del self._entries[run_id]
            self._journal({"event": "cancel", "run_id": run_id})
            return True

    def close(self) -> None:
        """Stop the queue: pending pops return ``None`` once drained."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed

    @property
    def depth(self) -> int:
        """Number of jobs currently queued (not yet popped)."""
        with self._lock:
            return sum(1 for e in self._entries.values() if e.state == "queued")

    def position(self, run_id: str) -> Optional[int]:
        """0-based dispatch position of a queued job (``None`` otherwise)."""
        with self._lock:
            entry = self._entries.get(run_id)
            if entry is None or entry.state != "queued":
                return None
            ahead = 0
            me = entry.job.sort_key()
            for other in self._entries.values():
                if other.state == "queued" and other.job.sort_key() < me:
                    ahead += 1
            return ahead
