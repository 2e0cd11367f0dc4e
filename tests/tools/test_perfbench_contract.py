"""The program names the outside-in benchmark (``perfbench/``) relies on.

``perfbench/common.provenance`` records which model-check engine and
batchsim storage a run resolves to, and the traced run's
``perfbench/hook/_perfbench_tracer.install`` wraps named functions and
methods across the package.  Renaming or deleting any of them breaks
every benchmark workload; these tests make that a test failure instead.
"""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_common():
    spec = importlib.util.spec_from_file_location(
        "perfbench_common", os.path.join(PERFBENCH, "common.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_provenance_resolves(tmp_path):
    os.makedirs(tmp_path / "tmp")
    provenance = _load_common().provenance(str(tmp_path))
    assert provenance["batchsim_backend"] == "stdlib"
    assert provenance["modelcheck_engine"] in {"vector", "packed"}


def test_tracer_installs(tmp_path):
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(PERFBENCH, 'hook')!r})\n"
        "import _perfbench_tracer\n"
        f"_perfbench_tracer.install({str(tmp_path)!r})\n"
        "print('installed')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"
