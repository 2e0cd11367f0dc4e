"""Tests for the content-addressed result cache: hit/miss/eviction/dedup."""

import json
import os
import threading
import time

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


class TestEviction:
    def test_lru_eviction_beyond_max_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=2)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        for index, key in enumerate(keys):
            path = cache.put(key, {"i": index})
            # Distinct mtimes make the LRU order deterministic.
            os.utime(path, (1000 + index, 1000 + index))
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None

    def test_get_refreshes_recency(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=2)
        old, young = "a" * 64, "b" * 64
        os.utime(cache.put(old, {}), (1000, 1000))
        os.utime(cache.put(young, {}), (2000, 2000))
        assert cache.get(old) is not None  # touch -> now the youngest
        newest = "c" * 64
        path = cache.put(newest, {})
        os.utime(path, (time.time(), time.time()))
        assert cache.get(old) is not None
        assert cache.get(young) is None  # the untouched one was evicted

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_entries=0)

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


class TestApproxCountDrift:
    """Regressions for the incremental-count drift bugs.

    The approximate entry count must track the filesystem: a corrupt
    entry removed by get() has to decrement it, and two threads putting
    the same *new* key must count it once, not twice.  Drift in either
    direction makes a bounded cache evict too early or too late.
    """

    def test_corrupt_entry_removal_decrements_the_count(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=10)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        for key in keys:
            cache.put(key, {"payload": 1})
        assert cache._approx_count == 3
        path = cache._path(keys[0])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert cache.get(keys[0]) is None  # corrupt: removed
        assert cache._approx_count == len(cache) == 2

    def test_concurrent_same_key_puts_count_once(self, tmp_path, monkeypatch):
        import repro.runs.cache as cache_module

        cache = ResultCache(str(tmp_path), max_entries=10)
        cache.put("a" * 64, {"payload": 0})  # prime the incremental count
        assert cache._approx_count == 1

        # Hold both threads at the tmp-file step so each has passed any
        # pre-write existence check before either replaces the entry —
        # the interleaving in which the old code double-counted.
        barrier = threading.Barrier(2, timeout=10)
        real_mkstemp = cache_module.tempfile.mkstemp

        def rendezvous_mkstemp(*args, **kwargs):
            result = real_mkstemp(*args, **kwargs)
            try:
                barrier.wait()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass
            return result

        monkeypatch.setattr(cache_module.tempfile, "mkstemp", rendezvous_mkstemp)
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
        assert cache._approx_count == 2  # old code: 3


    @pytest.mark.parametrize("second_put", [False, True])
    def test_plain_miss_racing_puts_keeps_the_fresh_entry(
        self, tmp_path, monkeypatch, second_put
    ):
        """A get() miss must never delete what a concurrent put() wrote.

        Forced interleaving, one thread, no sleeps: get()'s open() fails
        with FileNotFoundError, then a put() creates the entry (counted)
        before get() reacts.  The old get() saw the file exist and
        unlinked the fresh entry outside the lock.  With ``second_put``,
        a second put() of the same key — which judged it "not new" under
        the lock — lands its ``os.replace`` right after that unlink,
        restoring the file uncounted while get() still decremented: the
        count ended one below ``len(cache)``.
        """
        import repro.runs.cache as cache_module

        cache = ResultCache(str(tmp_path), max_entries=10)
        cache.put("a" * 64, {"payload": 0})  # prime the incremental count
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
        assert len(cache) == cache._approx_count == 2


class TestNanosecondEviction:
    """Regression: LRU eviction must order by st_mtime_ns, not seconds.

    With whole-second getmtime, every entry written within one second
    ties, and eviction order silently degrades to hash-path order.  The
    mtimes here are frozen to the same second with sub-float-resolution
    nanosecond offsets, so only a nanosecond-integer comparison can see
    the true LRU order.
    """

    BASE_NS = 1_700_000_000 * 10**9

    def _freeze(self, cache, key, offset_ns):
        os.utime(
            cache._path(key),
            ns=(self.BASE_NS + offset_ns, self.BASE_NS + offset_ns),
        )

    def test_same_second_entries_evict_in_true_lru_order(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=3)
        for key in ("a" * 64, "b" * 64, "c" * 64):
            cache.put(key, {"payload": 1})
        # Path order says "a" is oldest; nanosecond recency says "c" is.
        # The offsets are far below float-seconds resolution (~238ns at
        # this epoch), so getmtime()-based ordering cannot distinguish
        # them and would fall back to evicting "a".
        self._freeze(cache, "a" * 64, 30)
        self._freeze(cache, "b" * 64, 20)
        self._freeze(cache, "c" * 64, 10)
        cache.put("d" * 64, {"payload": 1})  # over the bound: evict one
        remaining = sorted(cache.keys())
        assert "c" * 64 not in remaining, "true LRU entry must be evicted"
        assert "a" * 64 in remaining and "b" * 64 in remaining

    def test_identical_timestamps_tie_break_deterministically(self, tmp_path):
        cache = ResultCache(str(tmp_path))  # unbounded while seeding
        for key in ("b" * 64, "c" * 64, "a" * 64):
            cache.put(key, {"payload": 1})
            self._freeze(cache, key, 0)  # all three truly identical
        cache.max_entries = 2
        cache._evict()
        # Documented tie-break: lexicographic path (= key) order,
        # lowest key first — fully deterministic on any filesystem.
        assert sorted(cache.keys()) == ["b" * 64, "c" * 64]
