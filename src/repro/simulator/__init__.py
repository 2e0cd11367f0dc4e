"""Simulation engine, traces, engine options and high-level runners."""

from .._lazy import lazy_exports

#: Public names mapped to the submodule that defines them, imported on
#: first access (PEP 562): ``repro.simulator.options`` is on every
#: command's import path, the engine only on the paths that simulate.
_EXPORTS = {
    "Simulator": ".engine",
    "EngineOptions": ".options",
    "Trace": ".trace",
    "TraceEvent": ".trace",
    "MoveRecord": ".trace",
    "simulate": ".runner",
    "run_to_configuration": ".runner",
    "run_gathering": ".runner",
    "default_step_budget": ".runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
