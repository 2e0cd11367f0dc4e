"""Tests for the persistent prioritised job queue behind repro serve."""

import json
import threading

import pytest

from repro.service import JobQueue


def _spec(seed=0):
    return {"kind": "simulate", "seed": seed}


class TestOrdering:
    def test_fifo_within_one_priority(self):
        queue = JobQueue()
        for index in range(3):
            queue.submit(f"{index:064x}", _spec(index))
        assert [queue.pop(timeout=0).document["seed"] for _ in range(3)] == [0, 1, 2]

    def test_higher_priority_dispatches_first(self):
        queue = JobQueue()
        queue.submit("a" * 64, _spec(0), priority=0)
        queue.submit("b" * 64, _spec(1), priority=5)
        queue.submit("c" * 64, _spec(2), priority=-1)
        order = [queue.pop(timeout=0).run_id for _ in range(3)]
        assert order == ["b" * 64, "a" * 64, "c" * 64]

    def test_position_reflects_dispatch_order(self):
        queue = JobQueue()
        queue.submit("a" * 64, _spec(0), priority=0)
        queue.submit("b" * 64, _spec(1), priority=5)
        assert queue.position("b" * 64) == 0
        assert queue.position("a" * 64) == 1
        assert queue.position("f" * 64) is None
        queue.pop(timeout=0)
        assert queue.position("b" * 64) is None  # running, not queued


class TestLifecycle:
    def test_submit_is_idempotent_while_unsettled(self):
        queue = JobQueue()
        first = queue.submit("a" * 64, _spec(0))
        again = queue.submit("a" * 64, _spec(0), priority=99)
        assert again is first  # no double-enqueue, priority unchanged
        assert queue.depth == 1
        job = queue.pop(timeout=0)
        assert queue.submit("a" * 64, _spec(0)) is job  # running: still held

    def test_settled_id_reenqueues_fresh(self):
        queue = JobQueue()
        queue.submit("a" * 64, _spec(0))
        queue.pop(timeout=0)
        queue.settle("a" * 64, "error")
        fresh = queue.submit("a" * 64, _spec(0))
        assert queue.depth == 1
        assert queue.pop(timeout=0) is fresh

    def test_cancel_only_hits_queued_jobs(self):
        queue = JobQueue()
        queue.submit("a" * 64, _spec(0))
        queue.submit("b" * 64, _spec(1))
        running = queue.pop(timeout=0)
        assert queue.cancel(running.run_id) is False  # running
        assert queue.cancel("f" * 64) is False  # unknown
        assert queue.cancel("b" * 64) is True  # queued
        assert queue.cancel("b" * 64) is False  # already cancelled
        assert queue.pop(timeout=0) is None  # cancelled residue is skipped

    def test_close_drains_then_stops(self):
        queue = JobQueue()
        queue.submit("a" * 64, _spec(0))
        queue.close()
        assert queue.closed
        assert queue.pop(timeout=0).run_id == "a" * 64  # backlog still served
        assert queue.pop(timeout=0) is None
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit("b" * 64, _spec(1))

    def test_close_wakes_blocked_poppers(self):
        queue = JobQueue()
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.pop(timeout=30)))
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [None]


class TestJournal:
    def _journal(self, tmp_path):
        return str(tmp_path / "queue" / "journal.jsonl")

    def test_recover_returns_only_unsettled_jobs(self, tmp_path):
        path = self._journal(tmp_path)
        queue = JobQueue(journal_path=path)
        queue.submit("a" * 64, _spec(0), priority=2)
        queue.submit("b" * 64, _spec(1))
        queue.submit("c" * 64, _spec(2))
        queue.pop(timeout=0)  # a (priority 2)
        queue.settle("a" * 64, "done")
        queue.cancel("c" * 64)

        recovered = JobQueue(journal_path=path).recover()
        assert [job.run_id for job in recovered] == ["b" * 64]
        assert recovered[0].document == _spec(1)

    def test_recover_preserves_priority_and_order(self, tmp_path):
        path = self._journal(tmp_path)
        queue = JobQueue(journal_path=path)
        queue.submit("b" * 64, _spec(1), priority=7)
        queue.submit("a" * 64, _spec(0))
        recovered = JobQueue(journal_path=path).recover()
        # Submission order, with priorities intact for re-submission.
        assert [(job.run_id, job.priority) for job in recovered] == [
            ("b" * 64, 7), ("a" * 64, 0),
        ]

    def test_recover_tolerates_torn_trailing_line(self, tmp_path):
        path = self._journal(tmp_path)
        queue = JobQueue(journal_path=path)
        queue.submit("a" * 64, _spec(0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "settle", "run_id": "aaa')  # crash mid-append
        recovered = JobQueue(journal_path=path).recover()
        # The torn settle is lost: the job recovers (re-run = cache hit).
        assert [job.run_id for job in recovered] == ["a" * 64]

    def test_recover_ignores_garbage_events(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"event": "submit", "run_id": "a" * 64, "spec": "bad"}),
                    json.dumps({"event": "submit", "spec": {"kind": "simulate"}}),
                    json.dumps({"event": "submit", "run_id": 7, "spec": {}}),
                    "",
                    json.dumps({"event": "submit", "run_id": "b" * 64, "spec": _spec(1)}),
                ]
            )
            + "\n"
        )
        recovered = JobQueue(journal_path=str(path)).recover()
        assert [job.run_id for job in recovered] == ["b" * 64]

    def test_recover_without_journal_is_empty(self, tmp_path):
        assert JobQueue(journal_path=self._journal(tmp_path)).recover() == []
        assert JobQueue().recover() == []

    def test_journal_lines_are_json_documents(self, tmp_path):
        path = self._journal(tmp_path)
        queue = JobQueue(journal_path=path)
        queue.submit("a" * 64, _spec(0), priority=1)
        queue.pop(timeout=0)
        queue.settle("a" * 64, "done")
        with open(path, "r", encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        assert [event["event"] for event in events] == ["submit", "settle"]
        assert events[0]["spec"] == _spec(0)
        assert events[0]["priority"] == 1
        assert events[1]["status"] == "done"


class TestBoundedMemory:
    """The queue holds only unsettled jobs; the journal keeps the history."""

    def test_settled_and_cancelled_jobs_are_forgotten(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        queue = JobQueue(journal_path=path)
        ids = [f"{index:064x}" for index in range(60)]
        for index, run_id in enumerate(ids):
            queue.submit(run_id, _spec(index))
            if index % 3 == 2:
                assert queue.cancel(run_id) is True
            else:
                job = queue.pop(timeout=0)
                assert job.run_id == run_id
                queue.settle(run_id, "done")
        pending = ["a" * 64, "b" * 64, "c" * 64]
        for index, run_id in enumerate(pending):
            queue.submit(run_id, _spec(100 + index), priority=index)
        running = queue.pop(timeout=0)
        assert running.run_id == "c" * 64

        assert sorted(queue._entries) == sorted(pending)
        assert queue.depth == 2
        assert queue.position("b" * 64) == 0
        assert queue.position("a" * 64) == 1
        assert queue.position(ids[0]) is None  # settled
        assert queue.position(ids[2]) is None  # cancelled

        # A settled id and a cancelled id both re-submit and run fresh.
        settled_again = queue.submit(ids[0], _spec(0), priority=9)
        cancelled_again = queue.submit(ids[2], _spec(2), priority=9)
        assert settled_again.seq > running.seq and cancelled_again.seq > running.seq
        assert queue.depth == 4
        assert [queue.pop(timeout=0).run_id for _ in range(4)] == [
            ids[0], ids[2], "b" * 64, "a" * 64,
        ]

        recovered = JobQueue(journal_path=path).recover()
        assert [job.run_id for job in recovered] == [
            "a" * 64, "b" * 64, "c" * 64, ids[0], ids[2],
        ]

    def test_resubmitted_cancelled_job_takes_its_new_place(self):
        queue = JobQueue()
        queue.submit("a" * 64, _spec(0))
        assert queue.cancel("a" * 64) is True
        queue.submit("b" * 64, _spec(1))
        queue.submit("a" * 64, _spec(0))
        # The cancelled submission's heap residue must not dispatch the
        # re-submitted job ahead of a job that was queued before it.
        assert queue.position("a" * 64) == 1
        assert [queue.pop(timeout=0).run_id for _ in range(2)] == ["b" * 64, "a" * 64]
        assert queue.pop(timeout=0) is None
