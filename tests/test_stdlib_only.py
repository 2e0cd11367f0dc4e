"""The package runs on the standard library alone: no NumPy import."""

import os
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


def test_verify_and_game_never_import_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("REPRO_RUN_CACHE", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stdlib-only"
