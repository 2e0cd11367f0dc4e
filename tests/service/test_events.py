"""Tests for the SSE event channels behind GET /v1/runs/<id>/events."""

import json
import threading

import pytest

from repro.service import EventBroker, EventChannel, format_sse


class TestFormat:
    def test_frame_layout(self):
        frame = format_sse(3, "status", {"b": 2, "a": 1})
        assert frame == b'id: 3\nevent: status\ndata: {"a":1,"b":2}\n\n'

    def test_data_is_compact_sorted_json(self):
        frame = format_sse(1, "progress", {"done": 1, "total": 2}).decode()
        payload = frame.split("data: ", 1)[1].strip()
        assert json.loads(payload) == {"done": 1, "total": 2}


class TestChannel:
    def test_late_subscriber_replays_full_history(self):
        channel = EventChannel()
        channel.publish("status", {"status": "queued"})
        channel.publish("status", {"status": "running"})
        channel.publish("status", {"status": "done"}, terminal=True)
        events = list(channel.subscribe())
        assert [event for _, event, _ in events] == ["status"] * 3
        assert [data["status"] for _, _, data in events] == ["queued", "running", "done"]
        assert [event_id for event_id, _, _ in events] == [1, 2, 3]

    def test_subscribe_resumes_after_last_event_id(self):
        channel = EventChannel()
        channel.publish("status", {"status": "queued"})
        channel.publish("status", {"status": "done"}, terminal=True)
        events = list(channel.subscribe(last_event_id=1))
        assert [data["status"] for _, _, data in events] == ["done"]

    def test_publish_after_terminal_is_dropped(self):
        channel = EventChannel()
        channel.publish("status", {"status": "done"}, terminal=True)
        channel.publish("status", {"status": "zombie"})
        assert channel.closed
        assert len(list(channel.subscribe())) == 1

    def test_live_subscriber_sees_events_as_published(self):
        channel = EventChannel()
        seen = []
        done = threading.Event()

        def consume():
            for _, _, data in channel.subscribe(poll_s=0.05):
                seen.append(data["status"])
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        channel.publish("status", {"status": "running"})
        channel.publish("status", {"status": "done"}, terminal=True)
        assert done.wait(timeout=10)
        assert seen == ["running", "done"]


class TestBroker:
    def test_channel_created_on_demand_and_reused(self):
        broker = EventBroker()
        channel = broker.channel("a" * 64)
        assert broker.channel("a" * 64) is channel
        assert broker.channel("b" * 64, create=False) is None

    def test_publish_routes_to_the_run_channel(self):
        broker = EventBroker()
        broker.publish("a" * 64, "status", {"status": "done"}, terminal=True)
        events = list(broker.channel("a" * 64).subscribe())
        assert [data["status"] for _, _, data in events] == ["done"]

    def test_reset_replaces_a_closed_channel(self):
        broker = EventBroker()
        broker.publish("a" * 64, "status", {"status": "error"}, terminal=True)
        broker.reset("a" * 64)
        broker.publish("a" * 64, "status", {"status": "queued"})
        subscription = broker.channel("a" * 64).subscribe(poll_s=0.01)
        event = next(subscription)
        subscription.close()
        assert event[2]["status"] == "queued"

    def test_closed_channels_prune_oldest_first_open_survive(self):
        broker = EventBroker(max_channels=2)
        broker.publish("a" * 64, "status", {}, terminal=True)  # closed, oldest
        broker.publish("b" * 64, "status", {})  # open: never pruned
        broker.publish("c" * 64, "status", {}, terminal=True)
        assert broker.channel("a" * 64, create=False) is None
        assert broker.channel("b" * 64, create=False) is not None
        assert broker.channel("c" * 64, create=False) is not None

    def test_pruning_at_the_cap_takes_the_oldest_closed_channels(self):
        broker = EventBroker(max_channels=3)
        layout = [("a", False), ("b", True), ("c", True), ("d", False), ("e", True), ("f", True)]
        with broker._lock:
            for name, closed in layout:
                channel = EventChannel()
                if closed:
                    channel.publish("status", {"status": "done"}, terminal=True)
                broker._channels[name * 64] = channel
            broker._prune_locked()  # excess 3: the three oldest closed go
            assert list(broker._channels) == ["a" * 64, "d" * 64, "f" * 64]
        # At the cap, every new channel evicts the oldest closed one.
        broker.publish("g" * 64, "status", {})
        assert list(broker._channels) == ["a" * 64, "d" * 64, "g" * 64]
        # With no closed channel left, open channels overflow the cap.
        broker.publish("h" * 64, "status", {})
        assert list(broker._channels) == ["a" * 64, "d" * 64, "g" * 64, "h" * 64]

    def test_max_channels_validated(self):
        with pytest.raises(ValueError):
            EventBroker(max_channels=0)
