"""Install the span recorder when ``PERFBENCH_TRACE_DIR`` is set.

The benchmark puts this directory first on ``PYTHONPATH`` for traced
runs only, so every Python process of the program (the CLI, forked or
spawned campaign workers, the ``repro serve`` child) records spans.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import _perfbench_tracer

    _perfbench_tracer.install(os.environ["PERFBENCH_TRACE_DIR"])
