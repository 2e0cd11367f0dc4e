"""Benchmark — simulation-engine and enumeration hot paths.

Times the two inner loops everything else is built on: the per-step cost
of the engine (Look/Compute/Move on a mid-size ring, both with a trivial
algorithm and with a full global-rule algorithm) and the direct necklace
enumeration behind the E1 census.  The emitted ``BENCH_engine.json``
additionally reports steps/sec and census classes/sec so regressions are
readable as throughput, not just wall-time.
"""

from repro.algorithms.baselines import SweepAlgorithm
from repro.algorithms.ring_clearing import RingClearingAlgorithm
from repro.analysis.enumeration import census, count_configurations
from repro.core.configuration import Configuration
from repro.simulator.engine import Simulator
from repro.simulator.options import EngineOptions

#: Steps per timed engine run; large enough to dominate setup cost.
ENGINE_STEPS = 3000

#: Ring-size grid of the census throughput workload.
CENSUS_N = 16

#: A rigid (aperiodic, asymmetric) gap cycle for k=8 on n=16, hardcoded so
#: the workload does not depend on the enumeration order of representatives.
RIGID_GAPS_N16_K8 = (0, 0, 1, 0, 2, 0, 1, 4)

#: Throughput of these exact workloads measured immediately before the
#: incremental-core/direct-enumeration rewrite (same container, 1 core);
#: the emitted document reports the speedup against these numbers.
PRE_REWRITE_BASELINE = {
    "engine-sweep-n60-k12": 15561.0,
    "engine-ring-clearing-n16-k8": 13168.0,
    "census-classes-per-sec": 2446.0,
}


def sweep_engine():
    """Cheap-compute workload: the engine itself is the hot path."""
    initial = Configuration.from_gaps((4,) * 12)  # n=60, k=12
    engine = Simulator(SweepAlgorithm(), initial, options=EngineOptions(chirality=True))
    engine.run(ENGINE_STEPS)
    return engine


def ring_clearing_engine():
    """Expensive-compute workload: global-rule planning on every Look."""
    initial = Configuration.from_gaps(RIGID_GAPS_N16_K8)
    engine = Simulator(RingClearingAlgorithm(), initial)
    engine.run(ENGINE_STEPS)
    return engine


def census_grid():
    """Full symmetry census over every k on an n=16 ring."""
    return [census(CENSUS_N, k) for k in range(1, CENSUS_N + 1)]


def test_sweep_engine_steps(benchmark):
    engine = benchmark(sweep_engine)
    assert engine.step_count == ENGINE_STEPS


def test_ring_clearing_engine_steps(benchmark):
    engine = benchmark(ring_clearing_engine)
    assert engine.step_count == ENGINE_STEPS
    assert not engine.trace.had_collision


def test_census_grid(benchmark):
    results = benchmark(census_grid)
    assert sum(c.total for c in results) > 0


def main():
    import json

    from _harness import emit

    path = emit(
        "engine",
        {
            "engine-sweep-n60-k12": sweep_engine,
            "engine-ring-clearing-n16-k8": ring_clearing_engine,
            "census-grid-n16": census_grid,
        },
    )
    # Derive throughput and the pre-rewrite comparison from the medians
    # emit() just measured, so every number in the document is backed by
    # the same 3-run timing.
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    medians = {name: data["median_s"] for name, data in document["workloads"].items()}
    classes = sum(
        count_configurations(CENSUS_N, k) for k in range(1, CENSUS_N + 1)
    )
    from _harness import safe_rate

    sweep_rate = safe_rate(ENGINE_STEPS, medians["engine-sweep-n60-k12"])
    clearing_rate = safe_rate(ENGINE_STEPS, medians["engine-ring-clearing-n16-k8"])
    census_rate = safe_rate(classes, medians["census-grid-n16"])
    document.update(
        {
            "steps_per_sec": {
                "engine-sweep-n60-k12": round(sweep_rate, 1),
                "engine-ring-clearing-n16-k8": round(clearing_rate, 1),
            },
            "census_classes_per_sec": round(census_rate, 1),
            "census_classes": classes,
            "speedup_vs_pre_rewrite_note": (
                "meaningful only on the 1-core reference container "
                "PRE_REWRITE_BASELINE was measured on; on other hosts the "
                "ratio conflates hardware speed with the rewrite"
            ),
            "speedup_vs_pre_rewrite": {
                "engine-sweep-n60-k12": round(
                    sweep_rate / PRE_REWRITE_BASELINE["engine-sweep-n60-k12"], 2
                ),
                "engine-ring-clearing-n16-k8": round(
                    clearing_rate / PRE_REWRITE_BASELINE["engine-ring-clearing-n16-k8"], 2
                ),
                "census-classes-per-sec": round(
                    census_rate / PRE_REWRITE_BASELINE["census-classes-per-sec"], 2
                ),
            },
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
