"""The reference stepper shares no engine code with the package.

``tests/reference_stepper.py`` is the oracle of the differential suite
and the golden-trace tests, so it must not import the engine it checks:
nothing from ``repro.batchsim``, ``repro.simulator.engine``,
``repro.simulator.classplan`` or ``repro.simulator.branching``, and no
decision cache, Look table, configuration pool or class-plan table.
"""

import ast
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STEPPER = os.path.join(HERE, "reference_stepper.py")

FORBIDDEN_MODULES = (
    "repro.batchsim",
    "repro.simulator.engine",
    "repro.simulator.classplan",
    "repro.simulator.branching",
)
FORBIDDEN_NAMES = {
    "DecisionCache",
    "LookTable",
    "ConfigurationPool",
    "ClassPlanTable",
    "look_direction",
    "BatchEngine",
    "Simulator",
}


def _forbidden(module):
    return any(module == name or module.startswith(name + ".") for name in FORBIDDEN_MODULES)


def _imports(tree):
    """Every imported module, with ``from X import y`` also yielding ``X.y``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "the stepper imports the package absolutely"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_stepper_imports_no_engine_module():
    with open(STEPPER, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = list(_imports(tree))
    assert "repro.core.configuration" in imported  # the walk sees the imports
    assert [module for module in imported if _forbidden(module)] == []


def test_stepper_names_no_engine_cache():
    with open(STEPPER, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert names & FORBIDDEN_NAMES == set()


def test_importing_the_stepper_loads_no_engine_module():
    """The same check at run time, through every transitive import."""
    probe = (
        "import sys\n"
        "import reference_stepper\n"
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, src]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.scheduler.sequential" in loaded
    assert [module for module in loaded if _forbidden(module)] == []
