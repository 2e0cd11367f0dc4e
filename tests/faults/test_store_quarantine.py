"""Result-store corruption tolerance: quarantine, don't die."""

import json
import os

import pytest

from repro.campaign import ExecutionContext, ResultStore, build_cells_campaign, run_campaign
from repro.faults import demo_worker


def _record(unit_id, index, k, n):
    return {
        "unit_id": unit_id,
        "index": index,
        "k": k,
        "n": n,
        "status": "ok",
        "payload": {"row": [k, n], "passed": True},
        "error": None,
        "duration_s": 0.0,
    }


def test_torn_trailing_line_is_dropped_silently(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append("c", _record("u000", 0, 3, 8))
    shard = store._shard_path("c", 0)
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"unit_id": "u001", "status": "o')  # interrupted write
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a torn tail is normal, not a warning
        records = store.iter_records("c")
    assert [r["unit_id"] for r in records] == ["u000"]
    assert not os.path.exists(store.quarantine_path("c"))


def test_corrupt_midfile_line_is_quarantined_with_warning(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append("c", _record("u000", 0, 3, 8))
    store.append("c", _record("u001", 1, 4, 8))
    shard = store._shard_path("c", 0)
    # Corrupt the *first* record in place (bit rot), keeping the newline.
    with open(shard, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lines[0] = lines[0][: len(lines[0]) // 2].rstrip("\n") + "\n"
    with open(shard, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.warns(RuntimeWarning, match="quarantined corrupt record"):
        records = store.iter_records("c")
    # The healthy record survives; the rotten one is quarantined.
    assert [r["unit_id"] for r in records] == ["u001"]
    with open(store.quarantine_path("c"), "r", encoding="utf-8") as handle:
        quarantined = handle.read()
    assert "shard-0000.jsonl:1" in quarantined


def test_quarantine_is_deduplicated_across_loads(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append("c", _record("u000", 0, 3, 8))
    store.append("c", _record("u001", 1, 4, 8))
    shard = store._shard_path("c", 0)
    with open(shard, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lines[0] = "not json at all\n"
    with open(shard, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.warns(RuntimeWarning):
        store.iter_records("c")
    with pytest.warns(RuntimeWarning):
        store.iter_records("c")
    with open(store.quarantine_path("c"), "r", encoding="utf-8") as handle:
        assert handle.read().count("not json at all") == 1


def test_non_dict_json_line_is_quarantined(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append("c", _record("u000", 0, 3, 8))
    store.append("c", _record("u001", 1, 4, 8))
    shard = store._shard_path("c", 0)
    with open(shard, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lines[0] = '[1, 2, 3]\n'  # valid JSON, wrong shape
    with open(shard, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.warns(RuntimeWarning):
        records = store.iter_records("c")
    assert [r["unit_id"] for r in records] == ["u001"]


def test_resume_rebuilds_quarantined_unit_byte_identically(tmp_path):
    """The affected unit is simply re-run; the summary fully heals."""
    campaign = build_cells_campaign(
        experiment="chaos",
        variant="rot",
        description="quarantine resume",
        cells=[(3, 8), (4, 8), (5, 8)],
    )
    clean_store = ResultStore(str(tmp_path / "clean"))
    run_campaign(campaign, demo_worker, ExecutionContext(store=clean_store))
    with open(clean_store.summary_path(campaign.name), "rb") as handle:
        clean = handle.read()

    rotten_store = ResultStore(str(tmp_path / "rot"))
    run_campaign(campaign, demo_worker, ExecutionContext(store=rotten_store))
    shard = rotten_store._shard_path(campaign.name, 0)
    with open(shard, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    victim = json.loads(lines[1])["unit_id"]
    lines[1] = lines[1][: len(lines[1]) // 3].rstrip("\n") + "\n"
    with open(shard, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    # Resume with a fresh store object, as a restarted process would.
    resumed = ResultStore(str(tmp_path / "rot"))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        report = run_campaign(campaign, demo_worker, ExecutionContext(store=resumed))
    assert victim in {r["unit_id"] for r in report.records}
    with open(resumed.summary_path(campaign.name), "rb") as handle:
        # iter_records warns again on the still-rotten line during the
        # final summary rebuild; the output itself is fully healed.
        assert handle.read() == clean


def test_append_and_reload_roundtrip_counts_shards(tmp_path):
    store = ResultStore(str(tmp_path), shard_size=2)
    for i in range(5):
        store.append("c", _record(f"u{i:03d}", i, 3, 8 + i))
    fresh = ResultStore(str(tmp_path), shard_size=2)
    assert len(fresh.iter_records("c")) == 5
    assert len(fresh._shard_paths("c")) == 3
