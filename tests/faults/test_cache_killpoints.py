"""Atomic-write kill-points: the cache never serves a torn entry."""

import json
import os

import pytest

from repro.faults import FaultPlan, KillPoint
from repro.runs.cache import ResultCache

KILL_POINTS = ("enter", "tmp_written", "replaced")

_KEY_A = "a" * 64
_KEY_B = "b" * 64
_DOC_OLD = {"payload": {"value": "old"}}
_DOC_NEW = {"payload": {"value": "new"}}


def _cache_killed_at(tmp_path, stage, key=_KEY_A):
    plan = FaultPlan(sites={f"cache.put.{stage}:{key}": "kill"})
    return ResultCache(str(tmp_path / "cache"), fault_plan=plan)


@pytest.mark.parametrize("stage", KILL_POINTS)
def test_kill_on_fresh_write_leaves_entry_or_nothing(tmp_path, stage):
    cache = _cache_killed_at(tmp_path, stage)
    with pytest.raises(KillPoint):
        cache.put(_KEY_A, _DOC_NEW)
    got = cache.get(_KEY_A)
    # Before the replace: no entry.  At/after the replace: the complete
    # new entry.  Never anything in between.
    if stage == "replaced":
        assert got == _DOC_NEW
    else:
        assert got is None


@pytest.mark.parametrize("stage", KILL_POINTS)
def test_kill_on_overwrite_leaves_old_or_new_never_torn(tmp_path, stage):
    cache = _cache_killed_at(tmp_path, stage)
    # Seed the old entry through a *clean* put (the kill-point site is
    # keyed to _KEY_A's put; firing is once-only anyway).
    clean = ResultCache(str(tmp_path / "cache"))
    clean.put(_KEY_A, _DOC_OLD)
    with pytest.raises(KillPoint):
        cache.put(_KEY_A, _DOC_NEW)
    got = cache.get(_KEY_A)
    assert got in (_DOC_OLD, _DOC_NEW)
    if stage == "replaced":
        assert got == _DOC_NEW
    else:
        assert got == _DOC_OLD
    # Whatever survived is complete, valid JSON on disk.
    path = cache._path(_KEY_A)
    with open(path, "r", encoding="utf-8") as handle:
        assert json.load(handle) in (_DOC_OLD, _DOC_NEW)


@pytest.mark.parametrize("stage", ("enter", "tmp_written"))
def test_interrupted_put_can_be_cleanly_retried(tmp_path, stage):
    cache = _cache_killed_at(tmp_path, stage)
    with pytest.raises(KillPoint):
        cache.put(_KEY_A, _DOC_NEW)
    # The site fired once; the retry (as recovery would issue) succeeds.
    assert cache.put(_KEY_A, _DOC_NEW)
    assert cache.get(_KEY_A) == _DOC_NEW


def test_orphan_tmp_file_is_invisible_to_readers_and_listings(tmp_path):
    cache = _cache_killed_at(tmp_path, "tmp_written")
    with pytest.raises(KillPoint):
        cache.put(_KEY_A, _DOC_NEW)
    # The simulated death leaves the temp file behind, like a real kill.
    bucket = os.path.join(cache.root, _KEY_A[:2])
    orphans = [n for n in os.listdir(bucket) if n.startswith(".tmp-")]
    assert orphans, "a killed write must leave its tmp file (as kill -9 would)"
    # Readers and key listings ignore it.
    assert cache.get(_KEY_A) is None
    assert len(cache) == 0
    assert cache.keys() == []


def test_later_writes_succeed_after_a_kill(tmp_path):
    plan = FaultPlan(sites={f"cache.put.tmp_written:{_KEY_A}": "kill"})
    cache = ResultCache(str(tmp_path / "cache"), fault_plan=plan)
    with pytest.raises(KillPoint):
        cache.put(_KEY_A, _DOC_NEW)
    # The killed write leaves no entry; later writes land whole.
    cache.put(_KEY_B, {"payload": 1})
    cache.put("c" * 64, {"payload": 2})
    assert sorted(cache.keys()) == sorted([_KEY_B, "c" * 64])
    assert cache.get(_KEY_B) == {"payload": 1}


def test_slow_io_site_delays_but_completes(tmp_path):
    plan = FaultPlan(sites={"cache.put.enter:*": "slow_io"}, slow_s=0.0)
    cache = ResultCache(str(tmp_path / "cache"), fault_plan=plan)
    cache.put(_KEY_A, _DOC_NEW)
    assert cache.get(_KEY_A) == _DOC_NEW


def test_corrupt_entry_is_a_miss_and_removed(tmp_path):
    """A torn entry somehow on disk (pre-fix writer, cosmic ray) never
    reaches a reader: it reads as a miss and is deleted."""
    cache = ResultCache(str(tmp_path / "cache"))
    path = cache._path(_KEY_A)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"payload": {"val')  # torn JSON
    assert cache.get(_KEY_A) is None
    assert not os.path.exists(path)
