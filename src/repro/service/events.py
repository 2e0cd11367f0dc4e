"""Server-sent-events plumbing: per-run progress channels.

``GET /v1/runs/<id>/events`` streams a run's lifecycle as SSE frames —
``status`` events for the ``queued -> running -> done | error |
cancelled`` transitions and ``progress`` events for campaign
unit-completion ticks during long verifies/experiments::

    id: 3
    event: status
    data: {"run_id": "...", "status": "running"}

    id: 4
    event: progress
    data: {"done": 12, "total": 48, "unit_id": "e7-n24-k8-s3"}

Each run has one :class:`EventChannel` holding its full event history
(events are tiny and runs are finite, so "history" is bounded in
practice by the number of campaign units).  A subscriber first replays
the history — a client that connects *after* the run finished still
sees the whole story — then blocks for live events until the channel is
closed by a terminal status.

The broker itself is bounded: terminal channels beyond ``max_channels``
are pruned oldest-first, exactly like the service's run registry.
"""

from __future__ import annotations

import json
import threading
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["EventBroker", "EventChannel", "format_sse"]

#: Event tuple: (monotonic id, event name, JSON-safe payload).
Event = Tuple[int, str, Dict[str, object]]


def format_sse(event_id: int, event: str, data: Dict[str, object]) -> bytes:
    """One wire-format SSE frame (``id`` + ``event`` + ``data`` lines)."""
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"id: {event_id}\nevent: {event}\ndata: {body}\n\n".encode("utf-8")


class EventChannel:
    """Event history + wakeup condition of one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._new_event = threading.Condition(self._lock)
        self._events: List[Event] = []
        self._closed = False

    def publish(self, event: str, data: Dict[str, object], terminal: bool = False) -> None:
        """Append one event; ``terminal`` closes the channel afterwards."""
        with self._lock:
            if self._closed:
                return
            self._events.append((len(self._events) + 1, event, data))
            if terminal:
                self._closed = True
            self._new_event.notify_all()

    @property
    def closed(self) -> bool:
        """Whether a terminal event has been published."""
        with self._lock:
            return self._closed

    def subscribe(
        self, last_event_id: int = 0, poll_s: float = 1.0
    ) -> Iterator[Event]:
        """Yield events after ``last_event_id``, blocking for live ones.

        The iterator ends when the channel is closed and fully drained.
        ``poll_s`` bounds each wait so a handler can notice a dead
        client connection (its write will fail) even on a silent run.
        """
        cursor = last_event_id
        while True:
            with self._lock:
                pending = [e for e in self._events if e[0] > cursor]
                if not pending:
                    if self._closed:
                        return
                    self._new_event.wait(timeout=poll_s)
                    pending = [e for e in self._events if e[0] > cursor]
            for event in pending:
                cursor = event[0]
                yield event


class EventBroker:
    """Channel registry: one :class:`EventChannel` per interesting run.

    Args:
        max_channels: bound on retained channels.  Open (non-terminal)
            channels are never pruned; beyond the bound the oldest
            *closed* channels are dropped — their runs remain queryable
            through the run registry and cache, only their replayable
            event history ages out.
    """

    def __init__(self, max_channels: int = 1024) -> None:
        if max_channels < 1:
            raise ValueError("max_channels must be >= 1")
        self._lock = threading.Lock()
        self._channels: Dict[str, EventChannel] = {}
        self._max_channels = max_channels

    def channel(self, run_id: str, create: bool = True) -> Optional[EventChannel]:
        """The run's channel; created on demand unless ``create=False``."""
        with self._lock:
            channel = self._channels.get(run_id)
            if channel is None and create:
                channel = EventChannel()
                # Re-insert at the tail so insertion order approximates
                # age for pruning (mirrors the service's run registry).
                self._channels[run_id] = channel
                self._prune_locked()
            return channel

    def publish(
        self,
        run_id: str,
        event: str,
        data: Dict[str, object],
        terminal: bool = False,
    ) -> None:
        """Publish one event on the run's channel (created on demand)."""
        channel = self.channel(run_id)
        assert channel is not None
        channel.publish(event, data, terminal=terminal)

    def reset(self, run_id: str) -> None:
        """Drop the run's channel so the next publish starts fresh.

        Used when a settled (errored/cancelled) run is re-submitted: its
        old channel is closed by the terminal event and would silently
        swallow the new lifecycle, so the re-run gets a new channel.
        """
        with self._lock:
            self._channels.pop(run_id, None)

    def _prune_locked(self) -> None:
        excess = len(self._channels) - self._max_channels
        if excess <= 0:
            return
        # Stop at the first ``excess`` closed channels instead of listing
        # the whole (always full) registry.  ``_closed`` is read without
        # the channel lock: it only ever flips to True, so a stale read
        # merely defers that channel's pruning to a later call.
        closed = (rid for rid, ch in self._channels.items() if ch._closed)
        for run_id in list(islice(closed, excess)):
            del self._channels[run_id]
