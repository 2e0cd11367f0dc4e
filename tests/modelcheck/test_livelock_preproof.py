"""Soundness of the SSYNC livelock pre-proof of the frontier engine.

:meth:`FrontierExplorer._candidate_regions` clears regions that cannot
hold a fair trap, and :meth:`FrontierExplorer._find_livelock` then
skips their SCC pass.  The proof is sound exactly when every region in
which :meth:`FrontierExplorer._fair_trap` finds a trap keeps its
candidate bit; this sweep checks that on every SSYNC searching,
gathering and align cell up to ``n = 12``, and that bypassing the proof
changes no verdict, note or witness.  ``sequential`` and ``explore``
cells never consult the proof.
"""

import json

import pytest

from repro.algorithms.nminusthree import nminusthree_supported
from repro.algorithms.ring_clearing import ring_clearing_supported
from repro.modelcheck import ModelChecker
from repro.modelcheck.frontier import FrontierExplorer

MAX_N = 12
MAX_STATES = 60_000
TASKS = ("searching", "gathering", "align")
SIZES = range(4, MAX_N + 1)

#: Cells of the sweep whose exploration reaches the livelock search;
#: every other cell stops earlier on a collision or an algorithm error.
LIVELOCK_CELLS = (
    [
        ("searching", n, k)
        for n in SIZES
        for k in range(1, n)
        if k == 1 or ring_clearing_supported(n, k) or nminusthree_supported(n, k)
    ]
    + [("gathering", n, k) for n in SIZES for k in range(1, max(3, n - 2))]
    + [("align", n, k) for n in SIZES for k in range(3, n - 2)]
)


@pytest.fixture
def graphs(monkeypatch):
    """Capture ``(explorer, out_edges, goal_states)`` of each livelock search."""
    seen = []
    original = FrontierExplorer._find_livelock

    def spy(self, out_edges, goal_states):
        seen.append((self, out_edges, goal_states))
        return original(self, out_edges, goal_states)

    monkeypatch.setattr(FrontierExplorer, "_find_livelock", spy)
    return seen


def _regions(explorer, out_edges, goal_states):
    """``(bit, region)`` pairs in the order ``_find_livelock`` visits them."""
    if explorer.spec.kind == "reach":
        return [(0, {s for s in out_edges if s not in goal_states})]
    bits = explorer.counts_bits
    return [
        (i, {s for s in out_edges if not (s >> (bits + i)) & 1})
        for i in range(explorer.n)
    ]


def _trap_census(explorer, out_edges, goal_states):
    """``(traps, pruned)`` region counts; asserts every trap is a candidate."""
    traps = pruned = 0
    candidates = explorer._candidate_regions(out_edges, goal_states)
    for bit, region in _regions(explorer, out_edges, goal_states):
        is_candidate = (candidates >> bit) & 1
        if explorer._fair_trap(out_edges, region, note="") is not None:
            traps += 1
            assert is_candidate, (explorer.spec.task, explorer.n, explorer.k, bit)
        elif not is_candidate:
            pruned += 1
    return traps, pruned


def _canonical_json(result):
    return json.dumps(result.to_jsonable(include_timing=False), sort_keys=True)


def test_every_trap_region_is_a_candidate(graphs):
    reached = []
    traps = pruned = 0
    for task in TASKS:
        for n in SIZES:
            for k in range(1, n):
                del graphs[:]
                ModelChecker(task, n, k, max_states=MAX_STATES).run()
                if not graphs:
                    continue
                reached.append((task, n, k))
                cell_traps, cell_pruned = _trap_census(*graphs[0])
                traps += cell_traps
                pruned += cell_pruned
    assert sorted(reached) == sorted(LIVELOCK_CELLS)
    # Not vacuous: the sweep met real traps and really pruned regions.
    assert traps > 0 and pruned > 0


@pytest.mark.parametrize(
    "task,n,k", LIVELOCK_CELLS, ids=[f"{t}-n{n}-k{k}" for t, n, k in LIVELOCK_CELLS]
)
def test_preproof_is_sound_and_changes_no_verdict(graphs, monkeypatch, task, n, k):
    result = ModelChecker(task, n, k, max_states=MAX_STATES).run()
    assert len(graphs) == 1  # the cell reached the livelock search
    _trap_census(*graphs[0])
    # With every region a candidate, each region gets its SCC pass.
    monkeypatch.setattr(FrontierExplorer, "_candidate_regions", lambda self, *args: -1)
    bypassed = ModelChecker(task, n, k, max_states=MAX_STATES).run()
    assert _canonical_json(bypassed) == _canonical_json(result)


@pytest.mark.parametrize(
    "task,n,k,adversary",
    [
        ("searching", 10, 6, "sequential"),
        ("searching", 5, 2, "sequential"),
        ("gathering", 8, 3, "sequential"),
        ("exploration", 10, 6, "ssync"),
        ("exploration", 10, 6, "sequential"),
    ],
)
def test_sequential_and_explore_bypass_the_proof(graphs, monkeypatch, task, n, k, adversary):
    def forbidden(*args):
        raise AssertionError("the pre-proof ran")

    monkeypatch.setattr(FrontierExplorer, "_candidate_regions", forbidden)
    result = ModelChecker(task, n, k, adversary=adversary, max_states=MAX_STATES).run()
    assert len(graphs) == 1  # the livelock search did run
    assert result.verdict.value in ("solved", "livelock")
