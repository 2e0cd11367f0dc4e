#!/usr/bin/env python
"""Chaos determinism check: faulted-and-recovered vs clean, as a diff.

Usage::

    python tools/chaos_diff.py --out chaos-out [--seed N] [--jobs N]

Runs the same demo campaign twice through the real campaign executor —
once fault-free, once under a seeded
:class:`~repro.faults.FaultPlan` injecting worker crashes, hangs (under
a deadline), transient errors and slow I/O — then byte-compares the two
``summary.json`` aggregates and writes the artifacts under ``--out``::

    chaos-out/
      clean/<campaign>/summary.json     fault-free aggregate
      faulted/<campaign>/summary.json   injected-and-recovered aggregate
      fired-sites.txt                   which sites the seed actually hit
      summary.diff                      unified diff (empty == identical)

Exit code 0 iff the summaries are byte-identical.  ``--seed`` defaults
to the ``REPRO_FAULT_SEED`` environment variable (default 0), which is
what the CI chaos job sweeps as a matrix.
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.campaign import (  # noqa: E402
    ExecutionContext,
    ResultStore,
    build_cells_campaign,
    run_campaign,
)
from repro.faults import FaultPlan, RetryPolicy, demo_worker  # noqa: E402

#: The demo grid: big enough that moderate fault rates hit several units.
CELLS = [(k, n) for n in (8, 9, 10, 11) for k in (3, 4, 5)]


def build_demo_campaign():
    """The fixed demo campaign both runs execute."""
    return build_cells_campaign(
        experiment="chaos",
        variant="diff",
        description="chaos-diff determinism probe",
        cells=CELLS,
    )


def main(argv=None) -> int:
    """Run the clean-vs-faulted comparison; 0 iff byte-identical."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("REPRO_FAULT_SEED", "0")),
        help="fault-plan seed (default: REPRO_FAULT_SEED or 0)",
    )
    parser.add_argument("--jobs", type=int, default=2, help="pool size (default: 2)")
    parser.add_argument(
        "--out", default="chaos-out", help="artifact directory (default: chaos-out)"
    )
    args = parser.parse_args(argv)

    campaign = build_demo_campaign()
    clean_store = ResultStore(os.path.join(args.out, "clean"))
    run_campaign(campaign, demo_worker, ExecutionContext(jobs=args.jobs, store=clean_store))
    with open(clean_store.summary_path(campaign.name), "rb") as handle:
        clean = handle.read()

    plan = FaultPlan(
        seed=args.seed,
        rates={"crash": 0.2, "transient": 0.2, "hang": 0.1, "slow_io": 0.2},
        hang_s=300.0,
        slow_s=0.005,
        state_dir=os.path.join(args.out, "fault-state"),
    )
    faulted_store = ResultStore(os.path.join(args.out, "faulted"), fault_plan=plan)
    started = time.monotonic()
    run_campaign(
        campaign,
        demo_worker,
        ExecutionContext(
            jobs=args.jobs,
            store=faulted_store,
            timeout=5.0,
            retry=RetryPolicy(base_delay_s=0.0, seed=args.seed),
            fault_plan=plan,
        ),
    )
    wall = time.monotonic() - started
    with open(faulted_store.summary_path(campaign.name), "rb") as handle:
        faulted = handle.read()

    fired = plan.fired_sites()
    with open(os.path.join(args.out, "fired-sites.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(fired) + "\n")

    diff = list(
        difflib.unified_diff(
            clean.decode("utf-8").splitlines(keepends=True),
            faulted.decode("utf-8").splitlines(keepends=True),
            fromfile="clean/summary.json",
            tofile="faulted/summary.json",
        )
    )
    with open(os.path.join(args.out, "summary.diff"), "w", encoding="utf-8") as handle:
        handle.writelines(diff)

    print(
        f"chaos-diff: seed={args.seed} jobs={args.jobs} "
        f"units={campaign.num_units} faults_fired={len(fired)} wall={wall:.1f}s"
    )
    for site in fired:
        print(f"  fired: {site}")
    if clean == faulted:
        print("chaos-diff: recovered summary is byte-identical to the clean run")
        return 0
    print(
        f"chaos-diff: MISMATCH — {len(diff)} diff lines; see "
        f"{os.path.join(args.out, 'summary.diff')}",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
