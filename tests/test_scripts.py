"""The experiment scripts run to completion on small arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("confluence_survey.py", ["--samples", "20", "--carrier", "4"]),
    ("law_sweep.py", ["--samples", "1"]),
    ("spectrum_sweep.py", ["perfbench/data/arith.trs", "--max-depth", "1"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
