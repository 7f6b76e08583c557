"""Build laplab's fixed set of artifacts in OUT and print their sha256 manifest.

    PYTHONPATH=<checkout>/src python3 scripts/artifact_digest.py OUT [--small]

Every file but one is written by `laplab.cli.main`, so this script runs
against any checkout whose command line takes the flags below: build the set
with the package of two commits and diff the two manifests to show that a
change kept every byte.  The set:

- the .llop of the six (mode, surface) pairs of `assemble`, at every grid;
- per grid and pair a `recover` report (embedded matrices up to 256 nodes,
  slim above), and for one intrinsic and one extrinsic pair a `--refine`
  report and an `--externalize` report with its two .llmx files;
- every file of `verify --scenario all --grid 32 --seed 3`;
- the `converge` CSV and s5_reference.json of four seeds;
- one stream of the package's random number generator, which no command
  writes by itself.

Grids are 16, 32 and 64.  --small builds every kind of file from tiny inputs
(grids 8 and 18, `verify --scenario S2 --grid 8`, short studies) in about a
second, for a smoke test.  The manifest lists `sha256  name` lines sorted by
name, as sha256sum does.  Hashes depend on numpy's own kernels (its build and
the SIMD paths it picks for the CPU), and those of the `*_refine.json` reports
also on LAPACK, so compare manifests built on one machine only.  One line on
stderr names the numpy version and the SIMD dispatch targets it enabled, so
that manifests built under different ones can be told apart; numpy's
NPY_DISABLE_CPU_FEATURES environment variable switches targets off.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

import numpy as np
from laplab.cli import main as laplab_main
from laplab.rng import Xorshift64Star

# (mode, surface) -> the assemble flags that select it
PAIRS = {
    "intrinsic_aniso_torus": ["--mode", "intrinsic", "--metric", "aniso:1.5"],
    "intrinsic_flat_torus": ["--mode", "intrinsic", "--metric", "flat"],
    "intrinsic_sphere": ["--mode", "intrinsic", "--metric", "sphere:1"],
    "extrinsic_clifford": ["--mode", "extrinsic", "--metric", "flat", "--embedding", "clifford"],
    "extrinsic_donut": ["--mode", "extrinsic", "--metric", "flat", "--embedding", "donut:2:1"],
    "extrinsic_sphere": ["--mode", "extrinsic", "--metric", "sphere:1", "--embedding", "sphere"],
}
# pairs whose reports are also built with --refine and with --externalize
EXTRA_REPORTS = ("intrinsic_aniso_torus", "extrinsic_sphere")
CONVERGE_SEEDS = (1234, 7, 99, 777)
RNG_SEED = 1234

FULL = {"grids": (16, 32, 64), "verify": ["--scenario", "all", "--grid", "32", "--seed", "3"],
        "converge": [], "draws": 1_000_003}
SMALL = {"grids": (8, 18), "verify": ["--scenario", "S2", "--grid", "8", "--seed", "3"],
         "converge": ["--n", "100,200,400", "--seeds", "5"], "draws": 10_007}


def _run(*argv: str) -> None:
    """One laplab command, its printed lines swallowed; a failure stops the build."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = laplab_main(list(argv))
    if code != 0:
        raise SystemExit(f"laplab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def build(out: str, small: bool = False) -> None:
    """Write the artifact set under the directory out (made if missing)."""
    size = SMALL if small else FULL
    os.makedirs(os.path.join(out, "pairs"), exist_ok=True)
    for grid in size["grids"]:
        for pair, flags in PAIRS.items():
            stem = os.path.join(out, "pairs", f"{pair}_{grid}")
            _run("assemble", *flags, "--density", "cosine:0.4:v", "--grid", str(grid),
                 "--bandwidth", "0.5", "--out", stem + ".llop")
            _run("recover", "--operator", stem + ".llop", "--out", stem + ".json")
            if pair in EXTRA_REPORTS:
                _run("recover", "--operator", stem + ".llop", "--refine",
                     "--out", stem + "_refine.json")
                _run("recover", "--operator", stem + ".llop", "--externalize", stem + "_mx",
                     "--out", stem + "_externalized.json")
    _run("verify", *size["verify"], "--out", os.path.join(out, "verify"))
    for seed in CONVERGE_SEEDS:
        _run("converge", *size["converge"], "--seed", str(seed),
             "--out", os.path.join(out, "converge", str(seed), "convergence.csv"))
    with open(os.path.join(out, f"rng_{RNG_SEED}.f64"), "wb") as fh:
        fh.write(Xorshift64Star(RNG_SEED).uniforms(size["draws"]).astype("<f8").tobytes())


def manifest(out: str) -> list[str]:
    """`sha256  name` for every file under out, sorted by name ('/' separated)."""
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out).replace(os.sep, "/"), digest))
    return [f"{digest}  {name}" for name, digest in sorted(lines)]


def numpy_build() -> str:
    """numpy's version and the SIMD dispatch targets it enabled on this CPU,
    from its public build information."""
    targets = " ".join(np.show_config(mode="dicts")["SIMD Extensions"].get("found", []))
    return f"numpy {np.__version__}, SIMD dispatch targets: {targets or 'none'}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="directory to build the artifacts in; must be empty or new")
    ap.add_argument("--small", action="store_true", help="tiny inputs, for a smoke test")
    args = ap.parse_args(argv)
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise SystemExit(f"{args.out} is not empty")
    build(args.out, args.small)
    print(numpy_build(), file=sys.stderr)
    print("\n".join(manifest(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
