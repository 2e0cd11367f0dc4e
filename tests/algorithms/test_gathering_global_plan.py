"""Gathering's global plan against the exact per-snapshot decisions.

The branching driver reads every robot's options off one
``GatheringAlgorithm.global_plan`` per state class whenever more than
two nodes are occupied inside the Theorem 8 range, and evaluates each
snapshot otherwise.  These tests pin both halves: the derived options
equal the per-snapshot options on every occupancy vector of the covered
range, the plan path really replaces the per-robot planner calls, and a
wrong plan is caught, reported and never leaks into the options.
"""

import ast
import itertools
import logging
from collections import Counter

import pytest

import repro.algorithms.gathering as gathering_module
from repro.algorithms.gathering import GatheringAlgorithm
from repro.analysis.enumeration import iter_configurations
from repro.core.configuration import Configuration
from repro.core.errors import RingSimError, UnsupportedParametersError
from repro.simulator.branching import BranchingDriver


def occupancy_vectors(n, k):
    """Every occupancy vector of ``k`` robots on ``n`` nodes, towers included."""
    for positions in itertools.combinations_with_replacement(range(n), k):
        counts = Counter(positions)
        yield tuple(counts[v] for v in range(n))


def outcome(compute, counts):
    """``compute(counts)``, or the type and message of the error it raises."""
    try:
        return compute(counts)
    except RingSimError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("n", range(3, 10))
def test_plan_options_equal_snapshot_options_on_every_vector(n):
    driver = BranchingDriver(GatheringAlgorithm(), n, multiplicity_detection=True)
    oracle = BranchingDriver(GatheringAlgorithm(), n, multiplicity_detection=True)
    regimes = Counter()
    for k in range(1, 7):
        for counts in occupancy_vectors(n, k):
            expected = outcome(oracle._compute_options_snapshots, counts)
            derived = outcome(driver._compute_options_from_plan, counts)
            occupied = sum(1 for c in counts if c)
            if derived is None:
                # No global plan: the endgame, a gathered ring, or a
                # support outside Theorem 8 whose error the snapshot
                # path must raise itself.
                if occupied <= 2:
                    regimes["endgame"] += 1
                    assert isinstance(expected, dict), counts
                else:
                    regimes["unsupported"] += 1
                    assert expected[0] is UnsupportedParametersError, counts
            else:
                regimes["plan"] += 1
                assert occupied > 2, counts
                assert derived == expected, counts
            assert outcome(driver.node_options, counts) == expected, counts
    # Theorem 8 needs n > occupied + 2: n = 6 is the first ring with a
    # plan-answered support, n = 9 the first with no unsupported one.
    assert regimes["endgame"] > 0
    assert (regimes["plan"] > 0) == (n >= 6)
    assert (regimes["unsupported"] > 0) == (n <= 8)


def test_towers_endgame_and_unsupported_supports():
    driver = BranchingDriver(GatheringAlgorithm(), 9, multiplicity_detection=True)
    # A tower on a rigid three-node support: answered by the plan.
    assert driver._compute_options_from_plan((2, 1, 0, 1, 0, 0, 0, 0, 0)) is not None
    # Two occupied nodes with a tower: the endgame reads the flag.
    assert driver._compute_options_from_plan((3, 0, 0, 1, 0, 0, 0, 0, 0)) is None
    assert driver.node_options((3, 0, 0, 1, 0, 0, 0, 0, 0)) == {0: (0,), 3: (-1,)}
    # k = 6 on n = 8 is outside Theorem 8 and not C*-type.
    small = BranchingDriver(GatheringAlgorithm(), 8, multiplicity_detection=True)
    assert small._compute_options_from_plan((1, 1, 0, 1, 1, 0, 1, 1)) is None
    with pytest.raises(UnsupportedParametersError, match="got n=8, k=6"):
        small.node_options((1, 1, 0, 1, 1, 0, 1, 1))


def test_spent_self_check_leaves_one_planner_call_per_class(monkeypatch):
    calls = []
    original = gathering_module.plan_gathering_support

    def counting(configuration):
        calls.append(configuration.counts)
        return original(configuration)

    monkeypatch.setattr(gathering_module, "plan_gathering_support", counting)
    n, k = 12, 5
    driver = BranchingDriver(GatheringAlgorithm(), n, multiplicity_detection=True)
    classes = [cfg.counts for cfg in iter_configurations(n, k, rigid_only=True)]
    # Spend the self-check budget (8 classes, each compared against the
    # per-snapshot path), then look at the classes after it.
    for counts in classes[:8]:
        driver.node_options(counts)
    for counts in classes[8:12]:
        calls.clear()
        driver.node_options(counts)
        assert len(calls) == 1, (counts, len(calls), 2 * k)


def test_driver_counts_classes_per_path():
    driver = BranchingDriver(GatheringAlgorithm(), 9, multiplicity_detection=True)
    driver.node_options((1, 1, 0, 1, 0, 0, 0, 0, 0))
    driver.node_options((2, 0, 0, 1, 0, 0, 0, 0, 0))
    assert (driver.plan_classes, driver.snapshot_classes) == (1, 1)
    # A dihedral image of a computed class is mapped, not recomputed.
    driver.node_options((0, 2, 0, 0, 1, 0, 0, 0, 0))
    assert (driver.plan_classes, driver.snapshot_classes) == (1, 1)


class WrongGathering(GatheringAlgorithm):
    """Gathering whose global plan claims that nobody ever moves."""

    name = "wrong-gathering"

    def global_plan(self, configuration):
        plan = super().global_plan(configuration)
        return None if plan is None else {}


def test_wrong_global_plan_falls_back_with_one_warning(caplog):
    n, k = 10, 4
    driver = BranchingDriver(WrongGathering(), n, multiplicity_detection=True)
    oracle = BranchingDriver(GatheringAlgorithm(), n, multiplicity_detection=True)
    classes = [cfg.counts for cfg in iter_configurations(n, k, rigid_only=True)]
    assert len(classes) > 3
    with caplog.at_level(logging.WARNING, logger="repro.simulator.classplan"):
        for counts in classes:
            assert driver.node_options(counts) == oracle._compute_options_snapshots(counts)
    warnings = [r for r in caplog.records if r.name == "repro.simulator.classplan"]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "wrong-gathering" in message
    assert f"n={n}" in message
    # The first class disagrees; the message names it in canonical form.
    named = ast.literal_eval(message.split("counts=")[1].split(";")[0])
    assert Configuration(named).canonical_key() == Configuration(classes[0]).canonical_key()
    assert driver.plan_classes == 0
    assert driver.snapshot_classes == len(classes)
