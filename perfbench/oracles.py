"""Output checks, written independently of laplab's own code.

Every check returns a list of failure messages; an empty list means the
command's output is correct.  The closed forms below re-derive what each
output must hold from the case parameters alone:

* operators (`.llop`): the header and nodes, rows of L summing to zero
  within the 1e-10 bound recovery enforces, and a seeded sample of entries
  against exp(-d^2/t) p(x_j) w_j / t^2 to a relative 1e-12.  d comes from
  the per-axis wrap minimum (diagonal torus metrics), the great-circle
  angle (sphere), or explicit embedding chords; w from the trapezoid rule.
* recovery reports: masses against the true p(x_j) w_j to a relative 1e-8
  (the S4 identity-exact bound); at the large grid, metric tensors against
  the chart metric (intrinsic, S2 threshold) or the induced metric of the
  embedding (extrinsic, S6 thresholds); matrix files or embedded matrices
  of the right shape.
* convergence CSVs: the requested sample sizes, a slope in the S5 range
  [-0.65, -0.35] that matches a refit of the table; and the package's RNG
  stream against a pure-Python xorshift64*/splitmix64.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct

import numpy as np

TWO_PI = 2.0 * math.pi

ROW_SUM_BOUND = 1e-10
ENTRY_REL_TOL = 1e-12
MASS_REL_TOL = 1e-8
SLOPE_RANGE = (-0.65, -0.35)
# S2 bounds the chart metric of intrinsic recovery; S6 bounds the induced
# metric per embedding.
METRIC_TOL = {
    ("intrinsic", "aniso_torus"): 1e-3,
    ("intrinsic", "sphere"): 1e-3,
    ("extrinsic", "donut"): 1e-2,
    ("extrinsic", "sphere"): 5e-3,
}
ENTRY_SAMPLES = 200
DIAGONAL_SAMPLES = 3

_HEAD = struct.Struct("<4sHBBIII")
_BAND = struct.Struct("<ddd")
_PARAM = struct.Struct("<Bddd")
_MX_HEAD = struct.Struct("<4sHII")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def is_sphere(case: dict) -> bool:
    return case["surface"] == "sphere"


def grid_nodes(case: dict) -> list[tuple[float, float]]:
    """Chart nodes in row-major order (u slowest), as build_grid lays them out."""
    n = case["grid"]
    if is_sphere(case):
        us = [math.pi * i / n for i in range(1, n)]
    else:
        us = [TWO_PI * i / n for i in range(n)]
    vs = [TWO_PI * j / n for j in range(n)]
    return [(u, v) for u in us for v in vs]


def grid_shape(case: dict) -> tuple[int, int]:
    n = case["grid"]
    return (n - 1, n) if is_sphere(case) else (n, n)


def spacing(case: dict) -> tuple[float, float]:
    n = case["grid"]
    return (math.pi / n, TWO_PI / n) if is_sphere(case) else (TWO_PI / n, TWO_PI / n)


def chart_metric_coeffs(case: dict) -> tuple[float, float]:
    """(E, G) of the diagonal measure metric on the torus chart."""
    if case["surface"] == "aniso_torus":
        a = case["a"]
        return a * a, 1.0 / (a * a)
    return 1.0, 1.0


def weights(case: dict, nodes) -> list[float]:
    """Trapezoid weights against the Riemannian measure of the chart metric."""
    if is_sphere(case):
        s = [math.sin(u) for u, _ in nodes]
        total = math.fsum(s)
        return [4.0 * math.pi * x / total for x in s]
    e, g = chart_metric_coeffs(case)
    w = (TWO_PI / case["grid"]) ** 2 * math.sqrt(e * g)
    return [w] * len(nodes)


def masses(case: dict, nodes=None) -> list[float]:
    """True node masses p(x_j) w_j of the cosine-bump density."""
    nodes = grid_nodes(case) if nodes is None else nodes
    w = weights(case, nodes)
    k = 0 if case["axis"] == "u" else 1
    raw = [1.0 + case["alpha"] * math.cos(x[k]) for x in nodes]
    z = math.fsum(r * wi for r, wi in zip(raw, w))
    return [r / z * wi for r, wi in zip(raw, w)]


def _wrap_sq(d: float) -> float:
    return min((d + k * TWO_PI) ** 2 for k in (-1, 0, 1))


def _unit(x):
    su = math.sin(x[0])
    return (su * math.cos(x[1]), su * math.sin(x[1]), math.cos(x[0]))


def _embed(case: dict, x):
    u, v = x
    if case["surface"] == "clifford":
        return (math.cos(u), math.sin(u), math.cos(v), math.sin(v))
    if case["surface"] == "donut":
        ring = case["major"] + case["minor"] * math.cos(u)
        return (ring * math.cos(v), ring * math.sin(v), case["minor"] * math.sin(u))
    return _unit(x)


def sq_dist(case: dict, x, y) -> float:
    """Squared kernel distance between two chart points."""
    if case["mode"] == "extrinsic":
        return math.fsum((p - q) ** 2 for p, q in zip(_embed(case, x), _embed(case, y)))
    if is_sphere(case):
        a, b = _unit(x), _unit(y)
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                 a[0] * b[1] - a[1] * b[0])
        theta = math.atan2(math.sqrt(sum(c * c for c in cross)),
                           sum(p * q for p, q in zip(a, b)))
        return theta * theta
    e, g = chart_metric_coeffs(case)
    return e * _wrap_sq(x[0] - y[0]) + g * _wrap_sq(x[1] - y[1])


def true_metric(case: dict, u: float):
    """(g_uu, g_uv, g_vv) the recovered tensor at colatitude/tube angle u estimates."""
    surface = case["surface"]
    if surface == "aniso_torus":
        a = case["a"]
        return a * a, 0.0, 1.0 / (a * a)
    if surface == "donut":
        r = case["minor"]
        ring = case["major"] + r * math.cos(u)
        return r * r, 0.0, ring * ring
    s = math.sin(u)
    return 1.0, 0.0, s * s


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


def check_operator(path: str, case: dict, seed: int) -> list[str]:
    """Check one `.llop` file against the closed forms of its case."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEAD.size + _BAND.size + 2 * _PARAM.size)
    except OSError as exc:
        return [f"cannot read operator: {exc}"]
    if len(head) < _HEAD.size + _BAND.size + 2 * _PARAM.size:
        return ["operator header truncated"]
    magic, version, mode_tag, chart, n, nu, nv = _HEAD.unpack_from(head)
    t, du, dv = _BAND.unpack_from(head, _HEAD.size)
    nodes = grid_nodes(case)
    fails = []
    want = (b"LLOP", 1, 0 if case["mode"] == "intrinsic" else 1,
            1 if is_sphere(case) else 0, len(nodes)) + grid_shape(case)
    if (magic, version, mode_tag, chart, n, nu, nv) != want:
        fails.append(f"header {(magic, version, mode_tag, chart, n, nu, nv)} != {want}")
        return fails
    if (t, du, dv) != (case["t"],) + spacing(case):
        fails.append(f"bandwidth/spacing {(t, du, dv)} != {(case['t'],) + spacing(case)}")
    offset = len(head)
    expected_size = offset + 8 * (2 * n + n * n)
    if os.path.getsize(path) != expected_size:
        return fails + [f"file size {os.path.getsize(path)} != {expected_size}"]
    stored = np.fromfile(path, dtype="<f8", count=2 * n, offset=offset).reshape(n, 2)
    if np.max(np.abs(stored - np.array(nodes))) > 1e-15:
        fails.append("stored nodes differ from the chart grid")
    entries = np.memmap(path, dtype="<f8", mode="r", offset=offset + 16 * n,
                        shape=(n, n))
    try:
        if not np.isfinite(entries).all():
            fails.append("non-finite operator entries")
        worst = float(np.max(np.abs(entries @ np.ones(n))))
        if not worst <= ROW_SUM_BOUND:
            fails.append(f"|L 1|_inf = {worst:.3e} exceeds {ROW_SUM_BOUND:g}")
        m = masses(case, nodes)
        c = case["t"] ** -2.0
        rng = random.Random(seed)
        worst_rel = 0.0
        for _ in range(ENTRY_SAMPLES):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            want_ij = -c * math.exp(-sq_dist(case, nodes[i], nodes[j]) / t) * m[j]
            worst_rel = max(worst_rel, _rel(float(entries[i, j]), want_ij))
        for _ in range(DIAGONAL_SAMPLES):
            i = rng.randrange(n)
            off = math.fsum(math.exp(-sq_dist(case, nodes[i], nodes[j]) / t) * m[j]
                            for j in range(n) if j != i)
            worst_rel = max(worst_rel, _rel(float(entries[i, i]), c * off))
        if not worst_rel <= ENTRY_REL_TOL:
            fails.append(f"sampled entries off by {worst_rel:.3e} relative")
    finally:
        del entries
    return fails


# ---------------------------------------------------------------------------
# recovery reports
# ---------------------------------------------------------------------------


def _matrix_file_ok(path: str, n: int) -> bool:
    try:
        with open(path, "rb") as fh:
            head = fh.read(_MX_HEAD.size)
    except OSError:
        return False
    if len(head) < _MX_HEAD.size:
        return False
    magic, version, rows, cols = _MX_HEAD.unpack(head)
    return ((magic, version, rows, cols) == (b"LLMX", 1, n, n)
            and os.path.getsize(path) == _MX_HEAD.size + 8 * n * n)


def check_report(path: str, chk: dict) -> list[str]:
    """Check one recovery report (and its matrix files) against its case."""
    case = chk["case"]
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read report: {exc}"]
    nodes = grid_nodes(case)
    n = len(nodes)
    fails = []
    if rep.get("n") != n or list(rep.get("grid_shape", [])) != list(grid_shape(case)):
        return [f"report shape n={rep.get('n')} grid={rep.get('grid_shape')} "
                f"!= n={n} grid={grid_shape(case)}"]
    got = rep.get("mass", [])
    want = masses(case, nodes)
    if len(got) != n:
        return ["mass vector has the wrong length"]
    worst = max(_rel(g, w) for g, w in zip(got, want))
    if not worst <= MASS_REL_TOL:
        fails.append(f"masses off by {worst:.3e} relative")

    idx = rep["metric"]["indices"]
    tensors = rep["metric"]["tensors"]
    if not idx or len(idx) != len(tensors):
        fails.append("no recovered metric tensors")
    elif chk["check_metric"]:
        tol = METRIC_TOL[(case["mode"], case["surface"])]
        err = 0.0
        for i, g in zip(idx, tensors):
            guu, guv, gvv = true_metric(case, nodes[i][0])
            err = max(err, abs(g[0][0] - guu), abs(g[0][1] - guv),
                      abs(g[1][0] - guv), abs(g[1][1] - gvv))
        if not err <= tol:
            fails.append(f"metric tensors off by {err:.3e} (bound {tol:g})")

    base = os.path.dirname(path)
    if chk["externalize"]:
        files = rep.get("matrix_files", {})
        for name in ("kernel", "distance"):
            mx = os.path.join(base, chk["externalize"], files.get(name, "?"))
            if not _matrix_file_ok(mx, n):
                fails.append(f"{name} matrix file missing or malformed")
    elif n <= 256:
        for name, diag in (("kernel", 1.0), ("distance", 0.0)):
            mat = rep.get(name)
            if (not isinstance(mat, list) or len(mat) != n
                    or any(len(row) != n for row in mat)
                    or any(mat[i][i] != diag for i in range(n))):
                fails.append(f"embedded {name} matrix malformed")
    return fails


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def xorshift_uniforms(seed: int, count: int) -> list[float]:
    """xorshift64* seeded through one splitmix64 round; top 53 bits / 2^53."""
    z = (seed + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    x = (z ^ (z >> 31)) or 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        out.append((((x * 0x2545F4914F6CDD1D) & _M64) >> 11) / 9007199254740992.0)
    return out


def sampler_seeds(chk: dict) -> list[int]:
    """Seeds the study passes to the sampler for its first and last repeat."""
    seeds = chk["seeds"]
    return [chk["seed"] + 1000003 * i + n
            for i in (0, seeds - 1) for n in (chk["n_values"][0], chk["n_values"][-1])]


def check_rng(generator_cls, chk: dict, count: int = 600) -> list[str]:
    """The package generator against the reimplementation, on the study's seeds."""
    fails = []
    for s in sampler_seeds(chk):
        got = generator_cls(s).uniforms(count).tolist()
        if got != xorshift_uniforms(s, count):
            fails.append(f"RNG stream for seed {s} differs from xorshift64*")
    return fails


def _fit_slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def check_convergence(path: str, chk: dict) -> list[str]:
    """Check the CSV table, its slope footer, and the S5 slope range."""
    try:
        with open(path) as fh:
            rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        return [f"cannot read convergence table: {exc}"]
    if not rows or rows[0] != "n,rms_error" or not rows[-1].startswith("slope,"):
        return ["convergence table layout wrong"]
    try:
        table = [(int(a), float(b)) for a, b in (r.split(",") for r in rows[1:-1])]
        slope = float(rows[-1].split(",")[1])
    except ValueError:
        return ["convergence table has unparsable rows"]
    fails = []
    if [n for n, _ in table] != chk["n_values"]:
        fails.append("convergence table sample sizes differ from the request")
        return fails
    if not all(e > 0.0 and math.isfinite(e) for _, e in table):
        return fails + ["non-positive or non-finite RMS error"]
    refit = _fit_slope([math.log(n) for n, _ in table], [math.log(e) for _, e in table])
    if not abs(refit - slope) <= 1e-9:
        fails.append(f"slope footer {slope} disagrees with the table ({refit})")
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        fails.append(f"slope {slope:.3f} outside [{lo}, {hi}]")
    return fails


def check_command(out_dir: str, chk: dict, seed: int) -> list[str]:
    path = os.path.join(out_dir, chk["file"])
    if chk["kind"] == "operator":
        return check_operator(path, chk["case"], seed)
    if chk["kind"] == "report":
        return check_report(path, chk)
    return check_convergence(path, chk)
