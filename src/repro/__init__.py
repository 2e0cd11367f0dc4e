"""ringsim — a unified Look-Compute-Move robot framework on anonymous rings.

This package reproduces "A Unified Approach for Different Tasks on Rings
in Robot-Based Computing Systems" (D'Angelo, Di Stefano, Navarra, Nisse,
Suchan): the min-CORDA model on anonymous unoriented rings, the Align /
Ring Clearing / NminusThree / Gathering algorithms, the task monitors for
exclusive perpetual exploration, exclusive perpetual graph searching and
gathering, and the feasibility characterization and impossibility
analyses of the paper.

Quickstart::

    from repro import Configuration, AlignAlgorithm, Simulator

    start = Configuration.from_occupied(12, [0, 2, 5, 6, 9])
    engine = Simulator(AlignAlgorithm(), start)
    trace = engine.run_until(lambda sim: sim.configuration.is_c_star(), 500)
    print(trace.final_configuration.ascii_art())
"""

from ._lazy import lazy_exports

#: Public names mapped to the subpackage that defines them, imported on
#: first access (PEP 562): ``import repro``, which every ``repro`` command
#: runs first, loads no engine the command does not use.
_EXPORTS = {
    "Ring": ".core",
    "Configuration": ".core",
    "Pattern": ".core",
    "RingSimError": ".core",
    "CW": ".core",
    "CCW": ".core",
    "Algorithm": ".model",
    "GlobalRuleAlgorithm": ".model",
    "Decision": ".model",
    "Snapshot": ".model",
    "AlignAlgorithm": ".algorithms",
    "RingClearingAlgorithm": ".algorithms",
    "NminusThreeAlgorithm": ".algorithms",
    "GatheringAlgorithm": ".algorithms",
    "IdleAlgorithm": ".algorithms",
    "SweepAlgorithm": ".algorithms",
    "GreedyGatherBaseline": ".algorithms",
    "SequentialScheduler": ".scheduler",
    "SynchronousScheduler": ".scheduler",
    "SemiSynchronousScheduler": ".scheduler",
    "AsynchronousScheduler": ".scheduler",
    "ScriptedScheduler": ".scheduler",
    "Simulator": ".simulator",
    "EngineOptions": ".simulator",
    "Trace": ".simulator",
    "simulate": ".simulator",
    "run_to_configuration": ".simulator",
    "run_gathering": ".simulator",
    "SearchingMonitor": ".tasks",
    "ExplorationMonitor": ".tasks",
    "GatheringMonitor": ".tasks",
}

__version__ = "1.0.0"

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
