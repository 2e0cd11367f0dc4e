"""Tests for the content-addressed result cache: hit/miss/races/dedup."""

import json
import os
import threading

import pytest

from repro.campaign import ExecutionContext, build_cells_campaign, run_campaign
from repro.modelcheck.grid import run_unit as verify_worker
from repro.runs import ResultCache, SimulateSpec, cache_key


def _boom_worker(unit):
    raise RuntimeError("boom")


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key(SimulateSpec())
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"payload": {"x": 1}})
        assert key in cache
        assert cache.get(key) == {"payload": {"x": 1}}

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache_key(SimulateSpec())
        path = cache.put(key, {"payload": 1})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert cache.get(key) is None
        assert key not in cache

    def test_put_is_deterministic_bytes(self, tmp_path):
        """Two puts of the same document write byte-identical files."""
        cache = ResultCache(str(tmp_path))
        document = {"payload": {"b": 2, "a": [1, 2]}, "spec": {"kind": "simulate"}}
        path1 = cache.put("a" * 64, document)
        path2 = cache.put("b" * 64, json.loads(json.dumps(document)))
        with open(path1, "rb") as h1, open(path2, "rb") as h2:
            assert h1.read() == h2.read()

    def test_keys_and_len(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert len(cache) == 0 and cache.keys() == []
        cache.put("a" * 64, {})
        cache.put("b" * 64, {})
        assert len(cache) == 2
        assert sorted(cache.keys()) == ["a" * 64, "b" * 64]
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_get_writes_nothing(self, tmp_path):
        """A hit neither rewrites nor touches its entry."""
        cache = ResultCache(str(tmp_path))
        key = "a" * 64
        path = cache.put(key, {"payload": 1})
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        assert cache.get(key) == {"payload": 1}
        assert os.stat(path).st_mtime_ns == 1_000_000_000

    def test_non_digest_keys_rejected_before_touching_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for key in ("../../../etc/passwd", "/abs/path", "short", "A" * 64, "g" * 64):
            with pytest.raises(ValueError, match="invalid cache key"):
                cache.get(key)
            with pytest.raises(ValueError, match="invalid cache key"):
                cache.put(key, {})


class TestUnitKeys:
    UNIT = {
        "campaign": "verify-x", "experiment": "verify", "variant": "x",
        "index": 0, "unit_id": "u000-k003-n006",
        "k": 3, "n": 6, "seed": 11, "samples": 1, "steps_factor": 1,
        "extra": {"task": "searching"},
    }

    def test_grid_labels_do_not_change_the_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        relabelled = dict(self.UNIT, campaign="other", unit_id="u099", index=99)
        assert cache.unit_key("w", self.UNIT) == cache.unit_key("w", relabelled)

    def test_semantics_and_worker_change_the_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = cache.unit_key("w", self.UNIT)
        assert cache.unit_key("other-worker", self.UNIT) != base
        assert cache.unit_key("w", dict(self.UNIT, n=7)) != base
        assert cache.unit_key("w", dict(self.UNIT, seed=12)) != base
        assert (
            cache.unit_key("w", dict(self.UNIT, extra={"task": "gathering"})) != base
        )


class TestCampaignDeduplication:
    CELLS = [(3, 6)]
    EXTRA = (("task", "searching"), ("adversary", "ssync"), ("max_states", 20000))

    def _campaign(self):
        return build_cells_campaign(
            experiment="verify",
            variant="searching-ssync-test",
            description="dedup test",
            cells=self.CELLS,
            extra=self.EXTRA,
        )

    def test_identical_units_served_from_cache_across_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        fresh = run_campaign(self._campaign(), verify_worker, ExecutionContext(cache=cache))
        assert fresh.cached == []
        again = run_campaign(self._campaign(), verify_worker, ExecutionContext(cache=cache))
        assert again.cached == ["u000-k003-n006"]
        # De-duplication must not change the deterministic aggregate.
        assert fresh.summary_bytes() == again.summary_bytes()

    def test_cached_and_fresh_store_summaries_byte_identical(self, tmp_path):
        """A cached campaign writes the same summary.json a fresh one does."""
        cache = ResultCache(str(tmp_path / "cache"))
        from repro.campaign import ResultStore

        fresh = run_campaign(
            self._campaign(),
            verify_worker,
            ExecutionContext(store=ResultStore(str(tmp_path / "store-fresh")), cache=cache),
        )
        cached = run_campaign(
            self._campaign(),
            verify_worker,
            ExecutionContext(store=ResultStore(str(tmp_path / "store-cached")), cache=cache),
        )
        assert cached.cached and not cached.resumed
        with open(fresh.summary_path, "rb") as h1, open(cached.summary_path, "rb") as h2:
            assert h1.read() == h2.read()

    def test_failed_units_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        campaign = build_cells_campaign(
            experiment="x", variant="y", description="d", cells=[(1, 3)]
        )
        report = run_campaign(campaign, _boom_worker, ExecutionContext(cache=cache))
        assert report.records[0]["status"] == "error"
        assert len(cache) == 0
        report2 = run_campaign(campaign, _boom_worker, ExecutionContext(cache=cache))
        assert report2.cached == []

    def test_dynamically_defined_workers_do_not_use_the_cache(self, tmp_path):
        """Lambdas share a qualname, so caching them could cross results."""
        import warnings as warnings_module

        cache = ResultCache(str(tmp_path))
        campaign = build_cells_campaign(
            experiment="x", variant="y", description="d", cells=[(1, 3)]
        )
        with pytest.warns(RuntimeWarning, match="no stable identity"):
            report = run_campaign(
                campaign, lambda unit: {"which": "A"}, ExecutionContext(cache=cache),
            )
        assert report.records[0]["payload"] == {"which": "A"}
        assert len(cache) == 0  # nothing cached under the ambiguous name
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("ignore", RuntimeWarning)
            report_b = run_campaign(
                campaign, lambda unit: {"which": "B"}, ExecutionContext(cache=cache),
            )
        assert report_b.records[0]["payload"] == {"which": "B"}
        assert report_b.cached == []


class TestConcurrentWrites:
    """A corrupt-entry removal and concurrent puts never lose a valid entry."""

    def test_concurrent_same_key_puts_leave_one_entry(self, tmp_path, monkeypatch):
        import tempfile

        cache = ResultCache(str(tmp_path))
        cache.put("a" * 64, {"payload": 0})

        # Hold both threads at the tmp-file step so each has written its
        # temp file before either replaces the entry.
        barrier = threading.Barrier(2, timeout=10)
        real_mkstemp = tempfile.mkstemp

        def rendezvous_mkstemp(*args, **kwargs):
            result = real_mkstemp(*args, **kwargs)
            try:
                barrier.wait()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass
            return result

        monkeypatch.setattr(tempfile, "mkstemp", rendezvous_mkstemp)
        threads = [
            threading.Thread(target=lambda: cache.put("b" * 64, {"payload": 1}))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(cache) == 2
        assert cache.get("b" * 64) == {"payload": 1}

    @pytest.mark.parametrize("second_put", [False, True])
    def test_plain_miss_racing_puts_keeps_the_fresh_entry(
        self, tmp_path, monkeypatch, second_put
    ):
        """A get() miss must never delete what a concurrent put() wrote.

        Forced interleaving, one thread, no sleeps: get()'s open() fails
        with FileNotFoundError, then a put() creates the entry before
        get() reacts.  The old get() saw the file exist and unlinked the
        fresh entry outside the lock.  With ``second_put``, a second
        put() of the same key lands right after any such unlink.
        """
        import repro.runs.cache as cache_module

        cache = ResultCache(str(tmp_path))
        cache.put("a" * 64, {"payload": 0})
        key = "b" * 64
        path = cache._path(key)
        real_open, real_unlink = open, os.unlink

        def racing_open(file, *args, **kwargs):
            if file == path and not os.path.exists(path):
                cache.put(key, {"payload": 1})
                raise FileNotFoundError(file)
            return real_open(file, *args, **kwargs)

        def racing_unlink(target, *args, **kwargs):
            real_unlink(target, *args, **kwargs)
            if second_put and target == path:
                with real_open(path, "w", encoding="utf-8") as handle:
                    json.dump({"payload": 1}, handle)

        monkeypatch.setattr(cache_module, "open", racing_open, raising=False)
        monkeypatch.setattr(cache_module.os, "unlink", racing_unlink)
        assert cache.get(key) is None  # the miss itself is correct
        monkeypatch.undo()
        assert cache.get(key) == {"payload": 1}
        assert len(cache) == 2
