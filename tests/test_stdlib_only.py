"""The package runs on the standard library alone, and start-up stays light.

Each probe runs in a fresh interpreter, so ``sys.modules`` shows exactly
what one command imported.  The start-up probes skip the ``site`` module
(``python -S``), whose ``sitecustomize`` hooks may import modules of
their own on some installations.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import io, sys
from repro.cli import main
from repro.analysis.game import searching_game_verdict
assert main(["verify", "searching", "--k", "3-4", "--n", "6-8"], out=io.StringIO()) == 0
searching_game_verdict(6, 3)
assert "numpy" not in sys.modules, "numpy was imported"
print("stdlib-only")
"""

#: Runs ``python -m repro ARGS`` in this interpreter, then reports on
#: stderr, as the last line, the loaded modules matching the budget.
MODULE_PROBE = """
import json, re, runpy, sys
pattern = re.compile(sys.argv.pop(1))
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
else:
    code = 0
sys.stdout.flush()
loaded = sorted(name for name in sys.modules if pattern.fullmatch(name))
sys.stderr.write("\\n" + json.dumps({"code": code, "loaded": loaded}) + "\\n")
"""

#: Modules neither the parser nor a whole-run cache hit may import: the
#: engines, the experiments, the campaign executor, the service and the
#: process pool all belong to the commands that execute something, and
#: ``tempfile`` (with the ``shutil`` and ``random`` it pulls in) only to
#: the commands that write a cache entry or a summary.
FORBIDDEN_AT_STARTUP = re.compile(
    r"repro\.modelcheck\.frontier|repro\.simulator\.branching|repro\.simulator\.engine"
    r"|repro\.batchsim\.engine|repro\.analysis\.game|repro\.experiments\.e\d.*"
    r"|repro\.campaign\.executor|repro\.service\.server"
    r"|multiprocessing|concurrent\.futures\.process|tempfile"
)


def _env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("REPRO_RUN_CACHE", None)
    return env


def _run_cli(args, cwd):
    """``python -m repro ARGS`` in a fresh process: (exit code, stdout,
    forbidden modules it loaded)."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", MODULE_PROBE, FORBIDDEN_AT_STARTUP.pattern, *args],
        env=_env(), cwd=str(cwd), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr.strip().splitlines()[-1])
    return report["code"], done.stdout, report["loaded"]


def test_verify_and_game_never_import_numpy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=_env(), cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stdlib-only"


def test_help_loads_no_engine(tmp_path):
    code, stdout, loaded = _run_cli(["--help"], tmp_path)
    assert code == 0
    assert "verify" in stdout
    assert loaded == []


def test_cached_verify_loads_no_engine_and_prints_the_cold_bytes(tmp_path):
    args = ["verify", "gathering", "--k", "3-4", "--n", "7-8", "--cache", str(tmp_path / "cache")]
    cold_code, cold_stdout, cold_loaded = _run_cli(args, tmp_path)
    assert cold_code == 0
    # The probe itself is sound: a cold run does load the model checker.
    assert "repro.modelcheck.frontier" in cold_loaded
    hit_code, hit_stdout, hit_loaded = _run_cli(args, tmp_path)
    assert hit_code == 0
    assert hit_stdout == cold_stdout
    assert hit_loaded == []


def test_cached_repro_all_loads_no_engine_and_prints_the_cold_bytes(tmp_path):
    args = ["all", "--jobs", "2", "--cache", str(tmp_path / "cache")]
    cold_code, cold_stdout, cold_loaded = _run_cli(args, tmp_path)
    assert cold_code == 0
    assert "repro.campaign.executor" in cold_loaded
    hit_code, hit_stdout, hit_loaded = _run_cli(args, tmp_path)
    assert hit_code == 0
    assert hit_stdout == cold_stdout
    assert hit_loaded == []
