"""Concurrent-service stress test: parallel submits against a bounded cache.

Many client threads hammer one :class:`RunService` with a mix of
*identical* specs (every thread submits the same spec — deduplication
must collapse them to one execution) and *distinct* specs (each must
execute exactly once).  The backing cache is bounded below the number of
distinct specs, so eviction sweeps run concurrently with gets/puts.

Asserted after the dust settles: no duplicated execution, no lost runs,
payloads byte-identical to direct ``runs.execute``, and the cache's
incremental ``_approx_count`` agreeing with a full filesystem rescan
(``__len__``).

The counters are read as soon as every run is visibly settled, which is
only sound because a run is journaled and counted *before* its terminal
status becomes visible; ``test_settle_order`` pins that order down.
"""

import json
import threading

from repro.runs import ExecutionContext, cache_key
from repro.runs import execute as runs_execute
from repro.runs.spec import spec_from_jsonable
from repro.service import RunService

BASE_SPEC = {
    "kind": "simulate",
    "algorithm": "align",
    "n": 10,
    "k": 4,
    "steps": 200,
    "seed": 0,
    "stop": "c_star",
}

DISTINCT_SEEDS = tuple(range(10))
CLIENT_THREADS = 8
SUBMITS_PER_CLIENT = 10


def test_parallel_identical_and_distinct_submits(tmp_path):
    service = RunService(ExecutionContext(cache=str(tmp_path / "cache")), workers=4, max_runs=1024)
    # Bound the cache *below* the distinct-spec count so eviction runs
    # concurrently with the submit/get/put traffic.
    service._cache.max_entries = 6

    submitted_ids = []
    ids_lock = threading.Lock()
    errors = []

    def client(client_index):
        try:
            for i in range(SUBMITS_PER_CLIENT):
                if i % 2 == 0:
                    spec = dict(BASE_SPEC)  # identical: all clients collide
                else:
                    seed = DISTINCT_SEEDS[(client_index + i) % len(DISTINCT_SEEDS)]
                    spec = dict(BASE_SPEC, seed=seed)
                view, _created = service.submit(spec)
                with ids_lock:
                    submitted_ids.append(view["run_id"])
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert len(submitted_ids) == CLIENT_THREADS * SUBMITS_PER_CLIENT

    # No lost runs: every submitted id settles as done.
    assert service.wait_idle(timeout=60)
    for run_id in set(submitted_ids):
        view = service.status(run_id)
        assert view is not None and view["status"] == "done", view

    # No duplicate execution: each distinct spec executed exactly once,
    # no matter how many threads raced to submit it.
    distinct = {BASE_SPEC["seed"]} | {
        DISTINCT_SEEDS[(c + i) % len(DISTINCT_SEEDS)]
        for c in range(CLIENT_THREADS)
        for i in range(1, SUBMITS_PER_CLIENT, 2)
    }
    executed = service.metrics.value("runs_executed_total")
    assert executed == len(distinct)

    # Payloads are byte-identical to direct runs.execute (no service in
    # the loop), queue/priority context notwithstanding.
    for seed in sorted(distinct)[:3]:
        spec = spec_from_jsonable(dict(BASE_SPEC, seed=seed))
        direct = runs_execute(spec)
        served = service.status(direct.run_id)
        assert served is not None and served["status"] == "done"
        assert json.dumps(served["result"], sort_keys=True) == json.dumps(
            direct.payload, sort_keys=True
        )

    # The incremental count agrees with a full rescan after the dust
    # settles (the _approx_count drift bugs would break this).
    cache = service._cache
    assert len(cache) == cache._approx_count
    assert len(cache) <= 6

    service.shutdown()


def test_settle_order():
    """A settle is journaled, then counted, then made visible, then
    announced: whoever sees ``done`` also sees the journal entry and
    ``runs_executed_total``, and the terminal event follows the status."""
    service = RunService(workers=1)
    spec = dict(BASE_SPEC, seed=99)
    run_id = cache_key(spec_from_jsonable(spec))
    observed = []

    def record(obj, attr, label, when):
        original = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            if when(*args, **kwargs):
                observed.append((label, service._runs[run_id]["status"]))
            return original(*args, **kwargs)

        setattr(obj, attr, wrapper)

    record(service._queue, "settle", "journal", lambda rid, status: True)
    record(
        service.metrics, "inc", "executed",
        lambda name, *args, **labels: name == "runs_executed_total",
    )
    record(
        service.events, "publish", "event",
        lambda rid, event, data, terminal=False: terminal,
    )
    service.submit(spec)
    assert service.wait_idle(timeout=60)
    service.shutdown()
    assert observed == [
        ("journal", "running"),
        ("executed", "running"),
        ("event", "done"),
    ]
