"""The scaling script's child mode runs against the library as it stands.

The script measures each row's peak RSS in a fresh interpreter that makes
the row's call once; on a small row that mode is the quickest whole run
of a layer, so a change to the library's surface that breaks one fails
here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# a small row of each layer
SMALL_ROWS = {"equilibrium": ["4"], "grid": ["boxes", "64x256"], "interpolant": ["shallow", "64x256"]}


@pytest.mark.parametrize("layer", SMALL_ROWS)
def test_child_mode_prints_peak_rss(layer):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling.py"), layer, "--child", *SMALL_ROWS[layer]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0
