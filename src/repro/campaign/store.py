"""Resumable on-disk result store for campaigns.

Layout (documented here because this *is* the interchange format)::

    <root>/
      <campaign-name>/              e.g. e7-quick/
        units/<key[:2]>/<key>.json  one ResultCache entry per finished unit
        summary.json                deterministic aggregate (see below)

**units/** is a :class:`~repro.runs.cache.ResultCache` keyed like the
unit de-duplication cache (worker identity, the unit's semantic fields,
package version).  Every successful unit is written there atomically and
fsync'd as it finishes, so resuming a campaign is plain de-duplication;
a corrupt or non-``ok`` entry is a miss, and only that unit re-runs.

**summary.json** is the aggregate: campaign metadata plus all unit
records sorted by grid index, with the non-deterministic bookkeeping
fields (``duration_s``) stripped and serialised with sorted keys and
fixed separators — so a serial and a parallel run of the same campaign
produce *byte-identical* summaries.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Dict, List

from .spec import Campaign

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..runs.cache import ResultCache

__all__ = ["ResultStore", "fsync_file"]

#: Record fields excluded from the deterministic aggregate summary.
_NON_DETERMINISTIC_FIELDS = ("duration_s",)


def _clean(record: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in record.items() if k not in _NON_DETERMINISTIC_FIELDS}


def fsync_file(path: str) -> None:
    """Flush an already written file's contents to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ResultStore:
    """Per-campaign unit caches plus a deterministic aggregate summary.

    Args:
        root: directory holding one sub-directory per campaign.
        fault_plan: optional :class:`~repro.faults.FaultPlan` handed to
            every unit cache, arming its write path's kill-points
            (``cache.put.{enter,tmp_written,replaced}:<key>``) —
            chaos-testing context only, never part of normal use.
    """

    def __init__(self, root: str, fault_plan=None) -> None:
        self.root = root
        self.fault_plan = fault_plan

    def campaign_dir(self, campaign_name: str) -> str:
        """Directory holding the unit cache and summary of one campaign."""
        return os.path.join(self.root, campaign_name)

    def summary_path(self, campaign_name: str) -> str:
        """Path of the aggregate summary file."""
        return os.path.join(self.campaign_dir(campaign_name), "summary.json")

    def units(self, campaign_name: str) -> "ResultCache":
        """The unit cache of one campaign (resume source and sink)."""
        # Imported lazily: repro.runs itself imports this package.
        from ..runs.cache import ResultCache

        return ResultCache(
            os.path.join(self.campaign_dir(campaign_name), "units"),
            fault_plan=self.fault_plan,
        )

    # ------------------------------------------------------------------ #
    # aggregate summary
    # ------------------------------------------------------------------ #
    @staticmethod
    def summary_document(
        campaign: Campaign, records: List[Dict[str, object]]
    ) -> Dict[str, object]:
        """The aggregate summary document (deterministic content)."""
        ordered = sorted(
            (_clean(record) for record in records),
            key=lambda record: record.get("index", 0),
        )
        failed = [r["unit_id"] for r in ordered if r.get("status") != "ok"]
        return {
            "campaign": campaign.name,
            "experiment": campaign.experiment,
            "variant": campaign.variant,
            "description": campaign.description,
            "num_units": campaign.num_units,
            "num_completed": len(ordered),
            "failed_units": failed,
            "units": ordered,
        }

    @staticmethod
    def summary_bytes(campaign: Campaign, records: List[Dict[str, object]]) -> bytes:
        """Deterministic serialisation of the aggregate summary."""
        document = ResultStore.summary_document(campaign, records)
        return (
            json.dumps(document, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
        ).encode("utf-8")

    def write_summary(
        self, campaign: Campaign, records: List[Dict[str, object]]
    ) -> str:
        """Write ``summary.json`` atomically (temp file, then ``os.replace``,
        so a killed write never leaves a torn summary); returns its path."""
        directory = self.campaign_dir(campaign.name)
        os.makedirs(directory, exist_ok=True)
        path = self.summary_path(campaign.name)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self.summary_bytes(campaign, records))
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        return path
