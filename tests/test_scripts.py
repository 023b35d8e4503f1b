"""The scaling scripts' child modes run against the library as it stands.

Each script measures its peak RSS in a fresh interpreter that runs one
solve or build; that mode is the quickest whole run of the script, so a
change to the library's surface that breaks a script fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("condenser_scaling.py", ["--one-solve", "boxes", "32", "64"]),
        ("equilibrium_scaling.py", ["--one-solve", "4"]),
        ("interpolant_scaling.py", ["--one-build", "shallow", "32", "128"]),
    ],
)
def test_child_mode_prints_peak_rss(script, args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0
