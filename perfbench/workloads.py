"""Seeded workload generation.

A workload is a fixed batch of laplab command lines plus, for each command,
the facts its output oracle needs.  The seed picks the command order and
draws each case's parameters from fixed ranges; the number and kind of
commands never depend on it.  The same seed always regenerates the same
argv, so a spec is a pure function of (workload, seed, tiny).

Paths inside argv are written with two placeholders that the worker fills
in: ``{in}`` for inputs made during setup and ``{out}`` for the batch's own
output directory, which is fresh for every batch.
"""

from __future__ import annotations

import random

WORKLOADS = ("assemble", "recover", "converge")

BANDWIDTH = 0.5

# Parameter ranges.  Anisotropy stays at or below 2 so that E/G = a^4 <= 16
# and the diagonal-metric geodesic search keeps its 9 lattice shifts.
ANISO_RANGE = (1.25, 2.0)
ALPHA_RANGE = (0.2, 0.6)
MAJOR_RANGE = (1.5, 2.5)
MINOR = 1.0

# (mode, surface) pairs reachable from `laplab assemble`.
ASSEMBLE_CASES = (
    ("intrinsic", "aniso_torus"),
    ("intrinsic", "flat_torus"),
    ("intrinsic", "sphere"),
    ("extrinsic", "clifford"),
    ("extrinsic", "donut"),
    ("extrinsic", "sphere"),
)

# Recovery cases: periodic or not, Richardson or not.  The large grid writes
# the full matrices out for two of them; the small grid embeds them in JSON.
RECOVER_CASES = (
    ("intrinsic", "aniso_torus", True),
    ("extrinsic", "donut", False),
    ("extrinsic", "sphere", True),
    ("intrinsic", "sphere", False),
)

CONVERGE_N = (1000, 4000, 16000, 64000)
CONVERGE_SEEDS = 20


def _case(rng: random.Random, mode: str, surface: str, grid: int) -> dict:
    """Draw the parameters of one operator and return its description."""
    case = {
        "mode": mode,
        "surface": surface,
        "grid": grid,
        "t": BANDWIDTH,
        "alpha": rng.uniform(*ALPHA_RANGE),
        "axis": rng.choice("uv"),
        "a": None,
        "major": None,
        "minor": None,
    }
    if surface == "aniso_torus":
        case["a"] = rng.uniform(*ANISO_RANGE)
    if surface == "donut":
        case["major"] = rng.uniform(*MAJOR_RANGE)
        case["minor"] = MINOR
    return case


def assemble_argv(case: dict, out: str) -> list[str]:
    """Command line that builds the operator a case describes."""
    surface = case["surface"]
    if surface == "aniso_torus":
        metric = f"aniso:{case['a']!r}"
    elif surface == "sphere":
        metric = "sphere:1.0"
    else:
        metric = "flat"
    argv = ["assemble", "--mode", case["mode"], "--metric", metric]
    if case["mode"] == "extrinsic":
        embedding = {
            "clifford": "clifford",
            "donut": f"donut:{case['major']!r}:{case['minor']!r}",
            "sphere": "sphere",
        }[surface]
        argv += ["--embedding", embedding]
    argv += [
        "--density", f"cosine:{case['alpha']!r}:{case['axis']}",
        "--grid", str(case["grid"]),
        "--bandwidth", repr(case["t"]),
        "--out", out,
    ]
    return argv


def _assemble(rng: random.Random, tiny: bool) -> dict:
    grid = 16 if tiny else 64
    commands = []
    for mode, surface in ASSEMBLE_CASES:
        case = _case(rng, mode, surface, grid)
        name = f"{mode}_{surface}.llop"
        commands.append({
            "argv": assemble_argv(case, "{out}/" + name),
            "check": {"kind": "operator", "file": name, "case": case},
        })
    rng.shuffle(commands)
    return {"setup": [], "commands": commands}


def _recover(rng: random.Random, tiny: bool) -> dict:
    grids = (16, 8) if tiny else (64, 16)
    setup, commands = [], []
    for grid in grids:
        for mode, surface, externalize in RECOVER_CASES:
            case = _case(rng, mode, surface, grid)
            stem = f"{mode}_{surface}_{grid}"
            setup.append(assemble_argv(case, "{in}/" + stem + ".llop"))
            argv = ["recover", "--operator", "{in}/" + stem + ".llop",
                    "--out", "{out}/" + stem + ".json"]
            ext_dir = None
            if externalize and grid == grids[0]:
                ext_dir = stem + "_mx"
                argv += ["--externalize", "{out}/" + ext_dir]
            commands.append({
                "argv": argv,
                "check": {
                    "kind": "report",
                    "file": stem + ".json",
                    "externalize": ext_dir,
                    # The S2/S6 bounds hold at grid 64; at grid 32 the
                    # intrinsic sphere already misses 1e-3 (3.2e-3).
                    "check_metric": grid == 64,
                    "case": case,
                },
            })
    rng.shuffle(commands)
    return {"setup": setup, "commands": commands}


def _converge(rng: random.Random, tiny: bool) -> dict:
    n_values = (1000, 2000, 4000) if tiny else CONVERGE_N
    seeds = 5 if tiny else CONVERGE_SEEDS
    seed = rng.randrange(1, 1 << 31)
    argv = ["converge", "--n", ",".join(str(n) for n in n_values),
            "--seeds", str(seeds), "--bandwidth", repr(BANDWIDTH),
            "--seed", str(seed), "--out", "{out}/convergence.csv"]
    check = {"kind": "convergence", "file": "convergence.csv",
             "n_values": list(n_values), "seeds": seeds, "seed": seed}
    return {"setup": [], "commands": [{"argv": argv, "check": check}]}


_BUILDERS = {"assemble": _assemble, "recover": _recover, "converge": _converge}


def make_spec(workload: str, seed: int, tiny: bool = False) -> dict:
    """The full, JSON-serializable description of one workload instance."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"laplab-perfbench:{workload}:{seed}")
    spec = _BUILDERS[workload](rng, tiny)
    spec.update(workload=workload, seed=seed, tiny=tiny)
    return spec
