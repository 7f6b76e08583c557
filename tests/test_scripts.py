"""Smoke tests of the scripts under scripts/, which import laplab's public API."""

import os
import subprocess
import sys

import laplab

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.dirname(os.path.dirname(laplab.__file__))


def test_stencil_order_sweep_prints_its_slope():
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "scripts", "stencil_order_sweep.py"),
         "--grids", "8,16"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("log-log slope: ") for line in proc.stdout.splitlines())
