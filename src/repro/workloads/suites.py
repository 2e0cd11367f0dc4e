"""Named parameter suites for the experiments E1-E8 and the batchsim benchmark.

Each suite is a plain data description (no computation) so that the
experiment modules, the benchmarks and the CLI agree on what gets run.
The ``quick`` variants are sized for CI / laptop runs; the ``full``
variants for the EXPERIMENTS.md tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Suite", "SUITES", "get_suite"]


@dataclass(frozen=True)
class Suite:
    """One experiment workload description.

    Attributes:
        name: suite identifier (``e1`` .. ``e8``, or ``batchsim``).
        description: one-line human description.
        pairs: the ``(k, n)`` pairs the experiment iterates over.
        samples_per_pair: number of random starting configurations per
            pair (exhaustive experiments ignore this).
        steps_factor: multiplier used to size perpetual runs
            (steps = factor * n * k).
        seed: base RNG seed.
    """

    name: str
    description: str
    pairs: Tuple[Tuple[int, int], ...]
    samples_per_pair: int = 3
    steps_factor: int = 30
    seed: int = 20130701


def _range_pairs(ns, k_of_n) -> Tuple[Tuple[int, int], ...]:
    out: List[Tuple[int, int]] = []
    for n in ns:
        for k in k_of_n(n):
            out.append((k, n))
    return tuple(out)


SUITES: Dict[str, Dict[str, Suite]] = {
    "e1": {
        "quick": Suite(
            name="e1",
            description="Configuration censuses of Figures 4-9",
            pairs=((4, 7), (4, 8), (5, 8), (6, 9), (4, 9), (5, 9)),
        ),
        "full": Suite(
            name="e1",
            description="Configuration censuses, full grid 3 <= n <= 14",
            pairs=_range_pairs(range(3, 15), lambda n: range(1, n + 1)),
        ),
    },
    "e2": {
        "quick": Suite(
            name="e2",
            description="Align convergence to C* (Theorem 1), exhaustive small rings",
            pairs=_range_pairs(range(8, 12), lambda n: range(3, n - 2)),
        ),
        "full": Suite(
            name="e2",
            description="Align convergence to C*, exhaustive to n = 13 plus sampled to n = 40",
            pairs=_range_pairs(range(8, 14), lambda n: range(3, n - 2))
            + ((5, 20), (10, 20), (15, 20), (5, 30), (12, 30), (20, 30), (10, 40), (25, 40)),
            samples_per_pair=10,
        ),
    },
    "e3": {
        "quick": Suite(
            name="e3",
            description="Ring Clearing perpetual searching + exploration (Theorem 6)",
            pairs=((5, 11), (6, 11), (6, 12), (7, 12), (8, 13)),
        ),
        "full": Suite(
            name="e3",
            description="Ring Clearing over the full proven range up to n = 18",
            pairs=_range_pairs(
                range(10, 19),
                lambda n: [k for k in range(5, n - 3) if not (k == 5 and n == 10)],
            ),
            samples_per_pair=3,
        ),
    },
    "e4": {
        "quick": Suite(
            name="e4",
            description="NminusThree perpetual searching + exploration (Theorem 7)",
            pairs=tuple((n - 3, n) for n in range(10, 14)),
        ),
        "full": Suite(
            name="e4",
            description="NminusThree up to n = 24",
            pairs=tuple((n - 3, n) for n in range(10, 25)),
        ),
    },
    "e5": {
        "quick": Suite(
            name="e5",
            description="Gathering with local multiplicity detection (Theorem 8)",
            pairs=_range_pairs(range(8, 12), lambda n: range(3, n - 2)),
        ),
        "full": Suite(
            name="e5",
            description="Gathering, exhaustive to n = 12 plus sampled larger rings",
            pairs=_range_pairs(range(8, 13), lambda n: range(3, n - 2))
            + ((5, 20), (10, 20), (8, 30), (20, 30), (15, 40)),
            samples_per_pair=10,
        ),
    },
    "e6": {
        "quick": Suite(
            name="e6",
            description="Feasibility characterization cross-check (small game instances)",
            pairs=((1, 4), (1, 5), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6)),
        ),
        "full": Suite(
            name="e6",
            description="Feasibility characterization, grid to n = 24 plus game instances",
            pairs=((1, 4), (1, 5), (2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6)),
        ),
    },
    "e8": {
        "quick": Suite(
            name="e8",
            description="Exhaustive model-checking verdicts vs feasibility + E6 game",
            pairs=(
                (1, 4), (2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 7),
                (3, 8), (4, 8), (5, 8), (7, 10), (5, 11), (6, 11),
            ),
            samples_per_pair=1,
            steps_factor=1,
        ),
        "full": Suite(
            name="e8",
            description=(
                "Model-checking verdicts, wider grid incl. n = 9 gathering, "
                "n = 11/12 searching and the n = 14 frontier cell"
            ),
            # (7, 14) is the first cell beyond the pre-packed-engine
            # frontier: it joined the suite when the packed frontier
            # engine made its certification cheap enough for the full
            # run (benchmarked in BENCH_modelcheck.json).
            pairs=(
                (1, 4), (1, 5), (2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 7),
                (3, 8), (4, 8), (5, 8), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9),
                (7, 10), (5, 11), (6, 11), (8, 11), (6, 12), (7, 12), (9, 12), (7, 14),
            ),
            samples_per_pair=1,
            steps_factor=1,
        ),
    },
    "e7": {
        "quick": Suite(
            name="e7",
            description="Scaling of convergence moves and clearing period",
            pairs=((5, 12), (5, 16), (5, 20), (8, 16), (8, 20), (8, 24)),
            samples_per_pair=5,
        ),
        "full": Suite(
            name="e7",
            description="Scaling sweeps over n at fixed k and over k at fixed n",
            pairs=tuple((5, n) for n in range(12, 41, 4))
            + tuple((8, n) for n in range(14, 41, 4))
            + tuple((k, 30) for k in range(5, 27, 3)),
            samples_per_pair=8,
        ),
    },
    # Not an experiment: the workload the batched-engine benchmark and
    # the batch_sweep example exercise — the heaviest E7 scaling cell,
    # at a batch size where lane setup cost has fully amortised.  Kept
    # here so the benchmark, the example and the docs cite one source.
    "batchsim": {
        "quick": Suite(
            name="batchsim",
            description="Batched-engine workload: heaviest E7 scaling cell, batch of 64",
            pairs=((8, 24),),
            samples_per_pair=64,
        ),
        "full": Suite(
            name="batchsim",
            description="Batched-engine workload at batch 256",
            pairs=((8, 24),),
            samples_per_pair=256,
        ),
    },
}


def get_suite(name: str, variant: str = "quick") -> Suite:
    """Look up a named suite (``e1`` .. ``e8``, or the ``batchsim``
    benchmark workload; variant ``quick`` or ``full``)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    variants = SUITES[name]
    if variant not in variants:
        raise KeyError(f"unknown variant {variant!r} for suite {name!r}")
    return variants[variant]
