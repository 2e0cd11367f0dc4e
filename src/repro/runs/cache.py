"""Content-addressed, on-disk result cache for the execution layer.

Every cache entry is addressed by the SHA-256 of the *canonical JSON*
of what produced it, salted with the package version and a cache schema
number — so a repeated ``simulate`` / ``verify`` / ``experiment`` run
with a byte-identical spec is served from disk for free, while any
release (which may change semantics) or schema change naturally misses.

Two key namespaces share one store:

* **run keys** (:meth:`ResultCache.key_for`) address whole
  :class:`~repro.runs.spec.RunSpec` results; the hex key doubles as the
  public run id of the HTTP service.
* **unit keys** (:meth:`ResultCache.unit_key`) address single campaign
  units — keyed on the worker identity plus the unit's *semantic* fields
  (grid labels like ``campaign``/``unit_id``/``index`` are excluded), so
  identical units are de-duplicated across campaigns.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per entry.
Entries are touched on read, and an optional ``max_entries`` bound
evicts the least-recently-used entries on insert.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

from .. import __version__
from .spec import RunSpec, canonical_spec_json

__all__ = ["ResultCache", "CACHE_SCHEMA_VERSION", "cache_key"]

#: Bumped whenever the cached document layout changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: Unit-record fields that label a unit's position in one particular
#: grid without changing the work it performs; excluded from unit keys
#: so identical units de-duplicate across campaigns.
_UNIT_LABEL_FIELDS = ("campaign", "unit_id", "index")


def _digest(material: str) -> str:
    salted = f"repro/{__version__}/schema{CACHE_SCHEMA_VERSION}:{material}"
    return hashlib.sha256(salted.encode("utf-8")).hexdigest()


def cache_key(spec: RunSpec) -> str:
    """The content-addressed key (and public run id) of a spec."""
    return _digest(f"run:{canonical_spec_json(spec)}")


class ResultCache:
    """Content-addressed JSON document store with optional LRU eviction.

    Args:
        root: cache directory (created lazily on first write).
        max_entries: optional bound on the number of stored documents;
            exceeding it evicts the least-recently-used entries.
        fault_plan: optional :class:`~repro.faults.FaultPlan` arming the
            named kill-points of the atomic write path (chaos-testing
            context only; see :meth:`put`).
    """

    def __init__(
        self,
        root: str,
        max_entries: Optional[int] = None,
        fault_plan=None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.root = root
        self.max_entries = max_entries
        self.fault_plan = fault_plan
        # Approximate entry count, maintained incrementally so a bounded
        # cache does not rescan the whole store on every insert; it is
        # re-synchronised with the filesystem whenever eviction runs.
        # Guarded by a (reentrant) lock: every mutation — the newness
        # check and replace in put(), the corrupt-entry removal in get(),
        # the eviction resync — happens under it, so concurrent writers
        # cannot drift the count (e.g. two threads both counting the
        # same new key).
        self._count_lock = threading.RLock()
        self._approx_count: Optional[int] = None

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def key_for(self, spec: RunSpec) -> str:
        """The run key of a spec (see :func:`cache_key`)."""
        return cache_key(spec)

    def unit_key(self, worker_name: str, unit: Dict[str, object]) -> str:
        """The de-duplication key of one campaign unit under one worker.

        Grid-label fields (:data:`_UNIT_LABEL_FIELDS`) are stripped
        before hashing: the same ``(k, n, seed, samples, steps_factor,
        extra)`` work is recognised no matter which campaign, index or
        unit id it appears under.
        """
        semantic = {
            key: value for key, value in unit.items() if key not in _UNIT_LABEL_FIELDS
        }
        material = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return _digest(f"unit:{worker_name}:{material}")

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> str:
        # Keys are SHA-256 hex digests.  Enforcing the format here keeps
        # attacker-controlled strings (e.g. a run id from a URL) from
        # escaping the cache root via ../ segments or absolute paths.
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"invalid cache key {key!r}: expected 64 lowercase hex chars")
        return os.path.join(self.root, key[:2], f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored document for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency (LRU).  A missing entry is a
        plain miss; a corrupt one (torn write, manual tampering) is a miss
        and is removed (see :meth:`_discard_corrupt`).
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            # Never unlink on a plain miss: a concurrent put() may have
            # created a fresh, valid entry since the failed open.
            return None
        except (OSError, json.JSONDecodeError):
            self._discard_corrupt(path)
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - recency refresh is best-effort
            pass
        return document

    def _discard_corrupt(self, path: str) -> None:
        """Remove an entry that failed to load, keeping the count exact.

        Runs under the count lock, which every put() holds around its
        newness check and ``os.replace``, and re-reads the entry first:
        one that a concurrent put() replaced meanwhile is valid again and
        stays, and a removal always moves the count with it — otherwise a
        bounded cache would believe it is fuller than it is and evict
        live entries early.
        """
        with self._count_lock:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    json.load(handle)
                return
            except FileNotFoundError:
                return
            except (OSError, json.JSONDecodeError):
                pass
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                return
            if self._approx_count is not None and self._approx_count > 0:
                self._approx_count -= 1

    def _kill_point(self, stage: str, key: str) -> None:
        """Named kill-point of the write path (no-op without a plan)."""
        if self.fault_plan is not None:
            self.fault_plan.fire(
                f"cache.put.{stage}:{key}", supported=("kill", "slow_io")
            )

    def put(self, key: str, document: Dict[str, object]) -> str:
        """Store ``document`` under ``key`` atomically; returns the path.

        The write is tmp-file-then-``os.replace``, so a reader can only
        ever observe the old entry or the complete new one.  Three named
        kill-points pin that claim down for the chaos suite —
        ``cache.put.enter`` (nothing written yet), ``cache.put.
        tmp_written`` (temp file durable, entry untouched) and
        ``cache.put.replaced`` (entry swapped, bookkeeping pending):
        a simulated death at any of them must leave the old entry or no
        entry, never a torn one.  On a simulated kill the temp file is
        deliberately *not* cleaned up — a real ``kill -9`` would not
        have, and readers must already ignore ``.tmp-`` names.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = json.dumps(document, sort_keys=True, indent=2) + "\n"
        self._kill_point("enter", key)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        killed = False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            self._kill_point("tmp_written", key)
            # Newness is decided under the same lock as the replace
            # itself: checked any earlier, two threads putting the same
            # new key would *both* observe "does not exist" and both
            # count it, drifting the approximate count upward forever.
            with self._count_lock:
                is_new = not os.path.exists(path)
                os.replace(tmp_path, path)
                if is_new and self._approx_count is not None:
                    self._approx_count += 1
            self._kill_point("replaced", key)
        except BaseException as exc:
            killed = exc.__class__.__name__ == "KillPoint"
            raise
        finally:
            if not killed and os.path.exists(tmp_path):
                os.unlink(tmp_path)
        if self.max_entries is not None:
            with self._count_lock:
                if self._approx_count is None:
                    self._approx_count = len(self._entries())
                if self._approx_count > self.max_entries:
                    self._evict()
        return path

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def _entries(self) -> List[Tuple[int, str]]:
        """All ``(mtime_ns, path)`` entries currently stored.

        Recency is read at nanosecond resolution (``st_mtime_ns``):
        whole-second ``getmtime`` would collapse every entry written
        within the same second into one bucket, making "LRU" eviction
        depend on hash-path order instead of actual access order.
        """
        entries: List[Tuple[int, str]] = []
        if not os.path.isdir(self.root):
            return entries
        for bucket in os.listdir(self.root):
            bucket_dir = os.path.join(self.root, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in os.listdir(bucket_dir):
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                path = os.path.join(bucket_dir, name)
                try:
                    entries.append((os.stat(path).st_mtime_ns, path))
                except OSError:  # pragma: no cover - raced deletion
                    continue
        return entries

    def __len__(self) -> int:
        return len(self._entries())

    def keys(self) -> List[str]:
        """All stored keys (unordered)."""
        return [
            os.path.splitext(os.path.basename(path))[0] for _, path in self._entries()
        ]

    def _evict(self) -> None:
        """Remove least-recently-used entries beyond ``max_entries``.

        Entries are ordered by nanosecond mtime; entries sharing the
        exact same timestamp (coarse-mtime filesystems, frozen clocks)
        tie-break deterministically in lexicographic path — i.e. key —
        order, lowest key first.
        """
        with self._count_lock:
            entries = self._entries()
            excess = len(entries) - (self.max_entries or 0)
            if excess > 0:
                for _, path in sorted(entries)[:excess]:
                    try:
                        os.unlink(path)
                    except OSError:  # pragma: no cover - raced deletion
                        continue
            self._approx_count = min(len(entries), self.max_entries or len(entries))

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        with self._count_lock:
            entries = self._entries()
            for _, path in entries:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - raced deletion
                    continue
            self._approx_count = 0
        return len(entries)

