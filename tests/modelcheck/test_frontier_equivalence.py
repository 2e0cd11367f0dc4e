"""Equivalence suite: the frontier engine == the golden corpus.

The frontier engine's speed-ups (packed states, cached plans, the
livelock pre-proof) are pure performance work; these tests pin that
claim down byte-for-byte against ``tests/golden/modelcheck_verdicts.json``,
a frozen corpus of verdict documents (``to_jsonable(include_timing=False)``,
witnesses included) for:

* every check of the E8 quick suite under both adversaries;
* the state-cap cell (searching, n=11, k=5, ``max_states=5``);
* the algorithm-error cell (gathering, n=6, k=4).

The corpus was written by the original tuple-state explorer, which
shares no exploration code with the packed-int frontier engine, at
commit 5d11c6a (the last commit that had it)::

    mkdir old && git archive 5d11c6a src | tar -x -C old
    REPRO_MODELCHECK_ENGINE=legacy PYTHONPATH=old/src \
        python tests/modelcheck/test_frontier_equivalence.py

Running this module against the current source instead rewrites the
corpus from the current engine; ``git diff`` then shows any drift.
"""

import json
import os
import sys

import pytest

from repro.algorithms.nminusthree import nminusthree_supported
from repro.algorithms.ring_clearing import ring_clearing_supported
from repro.experiments.e8_verification import GAME_CELLS, MAX_STATES
from repro.modelcheck import ModelChecker, check_cell, frontier
from repro.modelcheck.results import DEFAULT_MAX_STATES, ModelCheckResult, Verdict
from repro.modelcheck.tasks import make_task_spec
from repro.simulator.branching import NodeActivation
from repro.workloads.suites import get_suite

CORPUS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden",
    "modelcheck_verdicts.json",
)


def _applicable_tasks(k, n):
    """The tasks E8 checks on one cell (same rules as applicable_checks,
    minus the reference computations the equivalence claim doesn't need)."""
    tasks = []
    if 2 <= k < n - 2:
        tasks.append("gathering")
    if 3 <= k < n - 2:
        tasks.append("align")
    if ring_clearing_supported(n, k) or nminusthree_supported(n, k):
        tasks.extend(["searching", "exploration"])
    elif (k, n) in GAME_CELLS:
        tasks.append("searching")
    return tasks


def _canonical_json(result):
    return json.dumps(result.to_jsonable(include_timing=False), sort_keys=True)


E8_QUICK_CHECKS = [
    (task, k, n)
    for (k, n) in get_suite("e8", "quick").pairs
    for task in _applicable_tasks(k, n)
]

#: ``name -> (task, k, n, adversary, max_states)`` of every corpus cell.
CORPUS_CELLS = {
    f"{task}-k{k}-n{n}-{adversary}": (task, k, n, adversary, MAX_STATES)
    for adversary in ("ssync", "sequential")
    for task, k, n in E8_QUICK_CHECKS
}
CORPUS_CELLS["state-cap:searching-k5-n11-ssync"] = ("searching", 5, 11, "ssync", 5)
CORPUS_CELLS["error:gathering-k4-n6-ssync"] = (
    "gathering", 4, 6, "ssync", DEFAULT_MAX_STATES,
)


def _check(name):
    task, k, n, adversary, max_states = CORPUS_CELLS[name]
    return check_cell(task, n, k, adversary=adversary, max_states=max_states)


def corpus_text():
    """The corpus document, one cell per line."""
    lines = [
        f"{json.dumps(name)}: {_canonical_json(_check(name))}"
        for name in CORPUS_CELLS
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _golden():
    with open(CORPUS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _golden() if os.path.exists(CORPUS_PATH) else {}


class TestEngineEqualsCorpus:
    def test_corpus_covers_every_cell(self):
        assert sorted(GOLDEN) == sorted(CORPUS_CELLS)
        assert len(CORPUS_CELLS) == 2 * len(E8_QUICK_CHECKS) + 2
        assert GOLDEN["state-cap:searching-k5-n11-ssync"]["verdict"] == Verdict.UNKNOWN.value
        assert GOLDEN["error:gathering-k4-n6-ssync"]["verdict"] == Verdict.ERROR.value

    @pytest.mark.parametrize("name", sorted(CORPUS_CELLS))
    def test_verdict_json_byte_identical(self, name):
        expected = json.dumps(GOLDEN[name], sort_keys=True)
        assert _canonical_json(_check(name)) == expected

    @pytest.mark.parametrize("name", sorted(CORPUS_CELLS))
    def test_golden_witness_replays(self, name):
        """Each corpus witness profile is achievable: replaying the
        profiles through the branching driver reproduces the recorded
        occupancy vectors."""
        witness = GOLDEN[name]["witness"]
        if witness is None:
            return
        task, k, n, adversary, _ = CORPUS_CELLS[name]
        driver = ModelChecker(task, n, k, adversary=adversary).driver
        profiles = [
            tuple(NodeActivation(**activation) for activation in step["profile"])
            for step in witness["steps"]
        ]
        trajectory = driver.replay(tuple(witness["initial"]), profiles)
        assert [list(counts) for counts in trajectory[1:]] == [
            step["after"] for step in witness["steps"]
        ]

    def test_corpus_file_byte_identical(self):
        with open(CORPUS_PATH, encoding="utf-8") as handle:
            assert corpus_text() == handle.read()


class TestCustomSpec:
    def test_custom_spec_explores_with_private_caches(self, monkeypatch):
        monkeypatch.setattr(frontier, "_CELL_CACHES", {})
        spec = make_task_spec("gathering", 6, 3)
        custom = ModelChecker("gathering", 6, 3, spec=spec).run()
        assert custom.verdict is Verdict.SOLVED
        assert frontier._CELL_CACHES == {}
        registered = check_cell("gathering", 6, 3)
        assert list(frontier._CELL_CACHES) == [("gathering", 6, 3, "ssync")]
        assert _canonical_json(custom) == _canonical_json(registered)


class TestZeroDurationGuards:
    def test_states_per_second_is_zero_not_inf_on_zero_elapsed(self):
        result = ModelCheckResult(
            task="searching",
            k=3,
            n=6,
            algorithm="sweep",
            adversary="ssync",
            verdict=Verdict.SOLVED,
            num_states=123,
            elapsed_s=0.0,
        )
        assert result.states_per_second == 0.0
        document = json.dumps(result.to_jsonable())
        assert "Infinity" not in document and "NaN" not in document

    def test_fast_real_run_serialises_finite(self):
        result = check_cell("searching", 6, 3)
        document = json.dumps(result.to_jsonable())
        assert "Infinity" not in document and "NaN" not in document


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(f"usage: python {sys.argv[0]}")
    text = corpus_text()
    with open(CORPUS_PATH, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {len(CORPUS_CELLS)} cells to {CORPUS_PATH}")
