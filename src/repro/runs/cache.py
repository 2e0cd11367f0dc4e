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
The store is unbounded: a read never writes, and entries leave only
through :meth:`ResultCache.clear` or when found corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, List, Optional

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
    """Content-addressed JSON document store.

    Args:
        root: cache directory (created lazily on first write).
        fault_plan: optional :class:`~repro.faults.FaultPlan` arming the
            named kill-points of the atomic write path (chaos-testing
            context only; see :meth:`put`).
    """

    def __init__(self, root: str, fault_plan=None) -> None:
        self.root = root
        self.fault_plan = fault_plan
        # Serialises put()'s replace with the corrupt-entry removal in
        # get(), so a removal can never unlink an entry a concurrent
        # put() has just written.
        self._lock = threading.Lock()

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

        A missing entry is a plain miss; a corrupt one (torn write,
        manual tampering) is a miss and is removed (see
        :meth:`_discard_corrupt`).
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
        return document

    def _discard_corrupt(self, path: str) -> None:
        """Remove an entry that failed to load.

        Runs under the lock every put() holds around its ``os.replace``,
        and re-reads the entry first: one that a concurrent put()
        replaced meanwhile is valid again and stays.
        """
        with self._lock:
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
                pass

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
        ``cache.put.replaced`` (entry swapped, temp file gone):
        a simulated death at any of them must leave the old entry or no
        entry, never a torn one.  On a simulated kill the temp file is
        deliberately *not* cleaned up — a real ``kill -9`` would not
        have, and readers must already ignore ``.tmp-`` names.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = json.dumps(document, sort_keys=True, indent=2) + "\n"
        self._kill_point("enter", key)
        import tempfile

        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        killed = False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            self._kill_point("tmp_written", key)
            with self._lock:
                os.replace(tmp_path, path)
            self._kill_point("replaced", key)
        except BaseException as exc:
            killed = exc.__class__.__name__ == "KillPoint"
            raise
        finally:
            if not killed and os.path.exists(tmp_path):
                os.unlink(tmp_path)
        return path

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def _entries(self) -> List[str]:
        """The paths of all entries currently stored."""
        entries: List[str] = []
        if not os.path.isdir(self.root):
            return entries
        for bucket in os.listdir(self.root):
            bucket_dir = os.path.join(self.root, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in os.listdir(bucket_dir):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    entries.append(os.path.join(bucket_dir, name))
        return entries

    def __len__(self) -> int:
        return len(self._entries())

    def keys(self) -> List[str]:
        """All stored keys (unordered)."""
        return [os.path.splitext(os.path.basename(path))[0] for path in self._entries()]

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        entries = self._entries()
        for path in entries:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced deletion
                continue
        return len(entries)

