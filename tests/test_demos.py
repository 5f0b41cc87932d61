"""Smoke tests: the quick demos run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 03_noise_robustness.py trains 18 full runs (about a minute) and is left out.
@pytest.mark.parametrize("script", ["01_weight_surface.py", "02_loss_anatomy.py",
                                    "04_imbalance_dynamics.py"])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
