"""Smoke tests: the quick demos run to completion against the library and the `nla` runner."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 03_noise_robustness.py trains 18 full runs as two stacks (about 7 s on a
# 2-vCPU Xeon VM) and is left out.
@pytest.mark.parametrize("script", ["01_weight_surface.py", "02_loss_anatomy.py",
                                    "04_imbalance_dynamics.py"])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_walkthrough_exits_cleanly(tmp_path):
    # The shell demo calls the `nla` entry point; a shim first on PATH
    # runs this checkout's package with this interpreter.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "nla"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m nla "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run([shutil.which("bash"), str(ROOT / "demos" / "05_cli_walkthrough.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "demo_out" / "summary.csv").exists()
