"""Smoke tests of the scripts under scripts/, which import laplab's public API."""

import json
import os
import re
import subprocess
import sys

import numpy as np

import laplab

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.dirname(os.path.dirname(laplab.__file__))


def _run_script(name, *args):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "scripts", name), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_stencil_order_sweep_prints_its_slope():
    out = _run_script("stencil_order_sweep.py", "--grids", "8,16").stdout
    assert any(line.startswith("log-log slope: ") for line in out.splitlines())


def test_artifact_digest_manifest_is_reproducible_and_covers_every_kind(tmp_path):
    first, second = (_run_script("artifact_digest.py", str(tmp_path / run), "--small")
                     for run in ("a", "b"))
    # stderr names the numpy build and SIMD level that the bytes belong to
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]) or "none"
    assert first.stderr == f"numpy {np.__version__}, SIMD dispatch targets: {targets}\n"
    first, second = first.stdout, second.stdout
    assert first == second
    lines = first.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert names == sorted(names)
    assert len(names) == sum(len(files) for _, _, files in os.walk(tmp_path / "a"))
    # an operator file for each (mode, surface) pair of the command line
    pairs = {re.sub(r"_\d+\.llop$", "", n[len("pairs/"):]) for n in names if n.endswith(".llop")}
    assert len(pairs) == 6
    reports = [json.loads((tmp_path / "a" / n).read_text())
               for n in names if n.startswith("pairs/") and n.endswith(".json")]
    assert any("kernel" in r for r in reports)          # embedded matrices
    assert any("matrix_note" in r for r in reports)     # slim
    assert any("matrix_files" in r for r in reports)    # externalized
    assert any(n.endswith("_refine.json") for n in names)
    assert sum(n.endswith(".llmx") for n in names) >= 2
    assert {"verify/S2.json", "verify/S2_recovery.json"} <= set(names)
    for kind in ("/convergence.csv", "/s5_reference.json"):
        assert sum(n.startswith("converge/") and n.endswith(kind) for n in names) == 4
    assert any(n.startswith("rng_") for n in names)
