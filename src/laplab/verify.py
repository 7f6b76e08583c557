"""Scenario harness: the standard experiments S1 through S6.

Each scenario builds its own operators, runs whatever recovery it needs,
reduces the outcome to a few named discrepancy numbers, and compares them
against thresholds.  Each threshold carries a bucket label:
"identity-exact" for quantities that agree to rounding by construction,
"asymptotic" for quantities limited by grid resolution or sample size.  A
scenario passes iff every thresholded discrepancy is within bounds.

    S1  distinct metrics, equal volume form: intrinsic operators differ,
        and the gap grows with anisotropy.
    S2  round trip: assemble from known (metric, density), recover both.
    S3  the same metric pair as S1 drives identical extrinsic operators
        through a common embedding while the intrinsic ones stay apart.
    S4  measure rescaling (c^2 g, p/c^2) leaves the extrinsic operator and
        the recovered masses unchanged.
    S5  Monte-Carlo operator converges to the quadrature operator at the
        n^(-1/2) rate.
    S6  extrinsic recovery returns the induced metric of the embedding:
        flat for the Clifford torus, round at the sphere equator,
        diag(r^2, (R+r)^2) on the outer circle of the donut.

Scenarios build operators through operators.build_operator and S5 runs
through convergence_study.  Every JSON file goes through write_json: sorted
keys, no timestamps, so a fixed seed reproduces report files byte for byte.
Nothing is read back from an output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import __version__
from .discretization import (
    CosineBump,
    UniformDensity,
    build_grid,
    density_values,
    normalize_density,
    sample_points,
)
from .errors import InsufficientMaskError, InvalidParameterError, NumericalError
from .geometry import (
    TWO_PI,
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    sphere_sq_geodesic,
    sq_dist,
)
from .identify import (
    extract_weighted_kernel,
    metric_field_from_distance,
    recover_mass,
    report_payload,
    run_recovery,
)
from .operators import (
    build_operator,
    continuous_value,
    evaluate_discrete,
    operator_distance,
)

# Fixed scenario parameters, echoed in every report's config.
ANISOTROPY = 2.0
BUMP_ALPHA = 0.5
SCALE = 1.5
# S5's sample sizes, seeds per size and quadrature reference grid; `converge`
# takes its default sizes and seed count from here
N_VALUES = (1000, 4000, 16000, 64000)
N_SEEDS = 20
REFERENCE_GRID = 128


# Each threshold is (limit, op, bucket); a value passes iff _PASSES[op](value, limit).
_PASSES = {
    "le": lambda value, limit: value <= limit,
    "gt": lambda value, limit: value > limit,
    "range": lambda value, limit: limit[0] <= value <= limit[1],
}

THRESHOLDS: dict[str, dict[str, tuple]] = {
    "S1": {
        "operator_distance": (1e-3, "gt", "asymptotic"),
        "monotonicity_margin": (0.0, "gt", "asymptotic"),
    },
    "S2": {
        "metric_max_error": (1e-3, "le", "identity-exact"),
        "density_max_rel_error": (1e-3, "le", "identity-exact"),
    },
    "S3": {
        "extrinsic_distance": (1e-14, "le", "identity-exact"),
        "intrinsic_distance": (1e-3, "gt", "asymptotic"),
    },
    "S4": {
        "extrinsic_distance": (1e-12, "le", "identity-exact"),
        "mass_max_diff": (1e-8, "le", "identity-exact"),
    },
    "S5": {
        "slope": ([-0.65, -0.35], "range", "asymptotic"),
    },
    "S6": {
        "clifford_metric_max_error": (1e-3, "le", "asymptotic"),
        "sphere_equator_max_error": (5e-3, "le", "asymptotic"),
        "donut_tube_max_error": (1e-2, "le", "asymptotic"),
    },
}


@dataclass
class ScenarioConfig:
    scenario: str
    grid: int = 32
    bandwidth: float = 0.5
    seed: int = 1234
    out_dir: Optional[str] = None

    def echo(self) -> dict:
        return {
            "scenario": self.scenario,
            "grid": self.grid,
            "bandwidth": self.bandwidth,
            "seed": self.seed,
            "anisotropy": ANISOTROPY,
            "bump_alpha": BUMP_ALPHA,
            "scale": SCALE,
            "n_values": list(N_VALUES),
            "n_seeds": N_SEEDS,
        }


@dataclass
class ScenarioResult:
    scenario: str
    passed: bool
    discrepancies: dict
    thresholds: dict
    measurements: dict
    config: dict
    artifacts: list

    def payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "discrepancies": dict(sorted(self.discrepancies.items())),
            "thresholds": {k: v for k, v in sorted(self.thresholds.items())},
            "measurements": dict(sorted(self.measurements.items())),
            "config": self.config,
            "artifacts": sorted(self.artifacts),
            "version": __version__,
        }


def _finish(cfg: ScenarioConfig, discrepancies, measurements, artifacts) -> ScenarioResult:
    table = {}
    passed = True
    for name, value in discrepancies.items():
        limit, op, bucket = THRESHOLDS[cfg.scenario][name]
        table[name] = {"limit": limit, "op": op, "bucket": bucket}
        passed = passed and _PASSES[op](value, limit)
    result = ScenarioResult(
        scenario=cfg.scenario,
        passed=passed,
        discrepancies=discrepancies,
        thresholds=table,
        measurements=measurements,
        config=cfg.echo(),
        artifacts=artifacts,
    )
    if cfg.out_dir is not None:
        write_json(result.payload(), os.path.join(cfg.out_dir, f"{cfg.scenario}.json"))
    return result


def write_json(payload, path, indent=2) -> None:
    """Dump payload with sorted keys and a trailing newline, making its directory.

    The bytes are those of json.dump(payload, fh, indent=indent, sort_keys=True).
    With an indent, payload may also hold float64 and integer ndarrays, written
    as json.dump writes their nested lists, with non-finite entries as null.
    An array is written straight from its values: each distinct value (float64
    bit pattern, so 0.0 and -0.0 stay apart) is formatted once, and the texts
    are gathered back into place and joined at the list form's indentation.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        if indent is None:
            json.dump(payload, fh, sort_keys=True)
        else:
            fh.write(_indented(payload, " " * indent, "\n"))
        fh.write("\n")


# json's text of a finite float
_FLOAT_TEXT = float.__repr__


def _array_texts(a: np.ndarray) -> np.ndarray:
    """json's text of every entry of a, shaped like a; each distinct value
    is formatted once, and non-finite ones become null."""
    flat = a.ravel()
    if a.dtype == np.float64:
        bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
        values = bits.view(np.float64)
        texts = np.array(list(map(_FLOAT_TEXT, values.tolist())), dtype=object)
        texts[~np.isfinite(values)] = "null"
    else:
        values, inverse = np.unique(flat, return_inverse=True)
        texts = np.array(list(map(int.__repr__, values.tolist())), dtype=object)
    return texts[inverse].reshape(a.shape)


def _nested(texts: np.ndarray, step: str, nl: str) -> str:
    """The indented json list of an array of entry texts (see _indented)."""
    if len(texts) == 0:
        return "[]"
    inner = nl + step
    items = texts.tolist() if texts.ndim == 1 else [_nested(t, step, inner) for t in texts]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _indented(obj, step: str, nl: str) -> str:
    """json.dumps(obj, indent=len(step), sort_keys=True) with obj's opening
    line ending in nl (a newline plus the indentation of that line)."""
    inner = nl + step
    if isinstance(obj, dict) and obj:
        items = (json.dumps(_key(k)) + ": " + _indented(v, step, inner)
                 for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, np.ndarray) and (obj.dtype == np.float64 or obj.dtype.kind in "iu"):
        return _nested(_array_texts(obj), step, nl)
    if not (isinstance(obj, (list, tuple)) and obj):
        return json.dumps(obj)
    return "[" + inner + ("," + inner).join(_indented(x, step, inner) for x in obj) + nl + "]"


def _key(k) -> str:
    """A dict key as json turns it into a string."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


# ---------------------------------------------------------------------------
# scenario bodies
# ---------------------------------------------------------------------------


def _scenario_s1(cfg: ScenarioConfig) -> ScenarioResult:
    flat = TorusMetric.flat()
    n, t = cfg.grid, cfg.bandwidth
    base, _ = build_operator(flat, UniformDensity(), n, t)
    factors = sorted({1.25, 1.5, ANISOTROPY})
    gaps = []
    for a in factors:
        aniso = TorusMetric.anisotropic(a)
        op_a, _ = build_operator(aniso, UniformDensity(), n, t)
        gaps.append(operator_distance(base, op_a))
    margin = float(min(b - a for a, b in zip(gaps, gaps[1:])))
    discrepancies = {
        "operator_distance": gaps[-1],
        "monotonicity_margin": margin,
    }
    measurements = {"distance_by_anisotropy": {str(a): g for a, g in zip(factors, gaps)}}
    return _finish(cfg, discrepancies, measurements, [])


def _scenario_s2(cfg: ScenarioConfig) -> ScenarioResult:
    metric = TorusMetric.anisotropic(ANISOTROPY)
    density = CosineBump(BUMP_ALPHA, "u")
    op, p = build_operator(metric, density, cfg.grid, cfg.bandwidth)
    report = run_recovery(op)
    rule = op.rule

    g_true = metric.matrix()
    metric_err = float(np.max(np.abs(report.metric_field.tensors - g_true[None])))
    p_true = density_values(p, rule.nodes)[report.metric_field.indices]
    density_err = float(np.max(np.abs(report.density - p_true) / p_true))

    mass_true = density_values(p, rule.nodes) * rule.weights
    mass_err = float(np.max(np.abs(report.mass - mass_true) / mass_true))
    d_true = np.sqrt(sq_dist(metric, rule.nodes, rule.nodes))
    dist = report.distance
    sym = np.isfinite(dist)
    dist_err = float(np.max(np.abs(dist[sym] - d_true[sym])))

    report.errors = {
        "metric_max_error": metric_err,
        "density_max_rel_error": density_err,
        "mass_max_rel_error": mass_err,
        "distance_max_error": dist_err,
    }
    artifacts = []
    if cfg.out_dir is not None:
        name = "S2_recovery.json"
        write_json(report_payload(report), os.path.join(cfg.out_dir, name))
        artifacts.append(name)
    discrepancies = {
        "metric_max_error": metric_err,
        "density_max_rel_error": density_err,
    }
    measurements = {
        "mass_max_rel_error": mass_err,
        "distance_max_error": dist_err,
    }
    return _finish(cfg, discrepancies, measurements, artifacts)


def _scenario_s3(cfg: ScenarioConfig) -> ScenarioResult:
    flat = TorusMetric.flat()
    aniso = TorusMetric.anisotropic(ANISOTROPY)
    n, t = cfg.grid, cfg.bandwidth
    ext1, _ = build_operator(flat, UniformDensity(), n, t, CliffordTorus())
    ext2, _ = build_operator(aniso, UniformDensity(), n, t, CliffordTorus())
    int1, _ = build_operator(flat, UniformDensity(), n, t)
    int2, _ = build_operator(aniso, UniformDensity(), n, t)
    discrepancies = {
        "extrinsic_distance": operator_distance(ext1, ext2),
        "intrinsic_distance": operator_distance(int1, int2),
    }
    return _finish(cfg, discrepancies, {}, [])


def _scenario_s4(cfg: ScenarioConfig) -> ScenarioResult:
    flat = TorusMetric.flat()
    scaled = TorusMetric.scaled_flat(SCALE)
    n, t = cfg.grid, cfg.bandwidth
    op1, _ = build_operator(flat, UniformDensity(), n, t, CliffordTorus())
    op2, _ = build_operator(scaled, UniformDensity(), n, t, CliffordTorus())
    m1 = recover_mass(extract_weighted_kernel(op1))
    m2 = recover_mass(extract_weighted_kernel(op2))
    discrepancies = {
        "extrinsic_distance": operator_distance(op1, op2),
        "mass_max_diff": float(np.max(np.abs(m1 - m2))),
    }
    return _finish(cfg, discrepancies, {}, [])


# --- S5: Monte-Carlo convergence ------------------------------------------


def _f_cos_u(pts: np.ndarray) -> np.ndarray:
    return np.cos(np.atleast_2d(pts)[:, 0])


def _eval_points(count: int = 8) -> np.ndarray:
    """Deterministic, well-spread chart points (golden-ratio lattice), (count, 2)."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return np.array([[TWO_PI * ((k * phi) % 1.0), TWO_PI * ((k * phi * phi) % 1.0)]
                     for k in range(1, count + 1)])


@dataclass(frozen=True)
class ConvergenceResult:
    n_values: tuple[int, ...]
    errors: tuple[float, ...]       # mean RMS over seeds, one per n
    per_seed: np.ndarray            # (n_seeds, len(n_values))
    slope: float
    seed: int
    bandwidth: float

    def to_csv(self, path) -> None:
        lines = [
            "# laplab convergence study",
            f"# version={__version__} seed={self.seed} bandwidth={self.bandwidth!r} "
            f"reference_grid={REFERENCE_GRID} seeds={self.per_seed.shape[0]}",
            "n,rms_error",
        ]
        for n, e in zip(self.n_values, self.errors):
            lines.append(f"{n},{e!r}")
        lines.append(f"slope,{self.slope!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _s5_reference(rule, density, t, points):
    """Continuous operator values at the evaluation points, and a hash of the
    inputs, under which convergence_study writes them to s5_reference.json."""
    key_src = json.dumps(
        {
            "metric": [rule.metric.E, rule.metric.F, rule.metric.G],
            "density": density.label(),
            "t": t,
            "grid": list(rule.grid_shape),
            "f": "cos_u",
            "points": points.tolist(),
        },
        sort_keys=True,
    )
    key = hashlib.sha256(key_src.encode()).hexdigest()
    return continuous_value(rule.metric, density, rule, t, _f_cos_u, points), key


def _log_log_slope(x, y) -> float:
    """Least-squares slope of log y against log x, in closed form."""
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.mean()
    return float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))


def convergence_study(
    n_values=N_VALUES,
    n_seeds: int = N_SEEDS,
    bandwidth: float = 0.5,
    seed: int = 1234,
    out_dir=None,
) -> ConvergenceResult:
    """Monte-Carlo error vs sample size, with a least-squares log-log slope.

    Seed index i at size n samples the flat torus from `seed + 1000003 i + n`;
    its error is the RMS over eight chart points of the Monte-Carlo minus the
    quadrature value of cos(u) on a REFERENCE_GRID grid.  With out_dir set,
    a study that succeeds writes those quadrature values to s5_reference.json
    there; one that fails writes nothing.
    """
    n_values = tuple(int(n) for n in n_values)
    if len(n_values) < 3 or list(n_values) != sorted(set(n_values)):
        raise InvalidParameterError("need at least 3 strictly increasing sample sizes")
    if n_seeds < 5:
        raise InvalidParameterError("need at least 5 seeds for a stable slope")

    metric = TorusMetric.flat()
    rule = build_grid(metric, REFERENCE_GRID)
    density = normalize_density(UniformDensity(), rule)
    points = _eval_points()
    ref, key = _s5_reference(rule, density, bandwidth, points)
    del rule  # sampling needs only the density; free the reference grid
    per_seed = np.empty((n_seeds, len(n_values)))
    for i in range(n_seeds):
        for j, n in enumerate(n_values):
            cloud = sample_points(density, metric, n, seed + 1000003 * i + n)
            vals = evaluate_discrete(metric, cloud, bandwidth, _f_cos_u, points)
            per_seed[i, j] = np.sqrt(np.mean((vals - ref) ** 2))
            del cloud  # free this cloud before the next one is drawn
    errors = tuple(float(e) for e in per_seed.mean(axis=0))
    if not all(0.0 < e < math.inf for e in errors):
        raise NumericalError(f"mean Monte-Carlo errors {errors} have no log-log slope; "
                             f"bandwidth {bandwidth} is out of usable range")
    slope = _log_log_slope(n_values, errors)
    if out_dir is not None:
        write_json({"key": key, "values": ref.tolist()},
                   os.path.join(out_dir, "s5_reference.json"), indent=None)
    return ConvergenceResult(n_values, errors, per_seed, slope, seed, bandwidth)


def _scenario_s5(cfg: ScenarioConfig) -> ScenarioResult:
    study = convergence_study(bandwidth=cfg.bandwidth, seed=cfg.seed, out_dir=cfg.out_dir)
    artifacts = []
    if cfg.out_dir is not None:
        name = "S5_convergence.csv"
        study.to_csv(os.path.join(cfg.out_dir, name))
        artifacts.extend([name, "s5_reference.json"])
    discrepancies = {"slope": study.slope}
    measurements = {
        "errors_by_n": {str(n): e for n, e in zip(study.n_values, study.errors)},
    }
    return _finish(cfg, discrepancies, measurements, artifacts)


# --- S6: induced metric from extrinsic operators ---------------------------


def _scenario_s6(cfg: ScenarioConfig) -> ScenarioResult:
    n, t = cfg.grid, cfg.bandwidth
    flat = TorusMetric.flat()

    op, _ = build_operator(flat, UniformDensity(), n, t, CliffordTorus())
    fld = run_recovery(op).metric_field
    clifford_err = float(np.max(np.abs(fld.tensors - np.eye(2)[None])))

    donut = DonutTorus(2.0, 1.0)
    op, _ = build_operator(flat, UniformDensity(), n, t, donut)
    fld = run_recovery(op).metric_field
    tube = np.flatnonzero(op.rule.nodes[fld.indices, 0] == 0.0)
    if tube.size == 0:
        raise InsufficientMaskError(
            "no full stencil on the donut's outer circle; kernel weights "
            "between its stencil nodes underflow the edge threshold at "
            f"grid {n}, bandwidth {t} (refine the grid or widen the bandwidth)"
        )
    g_true = np.diag([donut.minor**2, (donut.major + donut.minor) ** 2])
    donut_err = float(np.max(np.abs(fld.tensors[tube] - g_true[None])))

    op, _ = build_operator(SphereMetric(1.0), UniformDensity(), n, t, UnitSphere())
    fld = run_recovery(op).metric_field
    equator = np.flatnonzero(np.abs(op.rule.nodes[fld.indices, 0] - math.pi / 2) < 1e-12)
    if equator.size == 0:
        raise InsufficientMaskError(
            f"no full stencil on the sphere equator at grid {n}, bandwidth {t}"
        )
    sphere_err = float(np.max(np.abs(fld.tensors[equator] - np.eye(2)[None])))

    discrepancies = {
        "clifford_metric_max_error": clifford_err,
        "donut_tube_max_error": donut_err,
        "sphere_equator_max_error": sphere_err,
    }
    measurements = {
        "donut_tube_nodes": int(tube.size),
        "sphere_equator_nodes": int(equator.size),
    }
    return _finish(cfg, discrepancies, measurements, [])


_BODIES: dict[str, Callable[[ScenarioConfig], ScenarioResult]] = {
    "S1": _scenario_s1,
    "S2": _scenario_s2,
    "S3": _scenario_s3,
    "S4": _scenario_s4,
    "S5": _scenario_s5,
    "S6": _scenario_s6,
}
SCENARIO_IDS = tuple(_BODIES)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one scenario; writes <out_dir>/<id>.json when out_dir is set."""
    if cfg.scenario not in _BODIES:
        raise InvalidParameterError(
            f"unknown scenario {cfg.scenario!r}; choose from {SCENARIO_IDS}"
        )
    return _BODIES[cfg.scenario](cfg)


# ---------------------------------------------------------------------------
# stencil resolution sweep (order check for the metric stencil)
# ---------------------------------------------------------------------------


def stencil_order_study(grid_sizes=(16, 32, 64)) -> tuple[list, list, float]:
    """Error of the plain metric stencil on exact sphere distances vs spacing.

    Evaluates at the node u = pi/4 (present in every listed grid), where the
    chart metric varies and the truncation term is visible.  Returns the
    spacing labels 2 pi / N, the max-abs errors, and the log-log slope.
    """
    sphere = SphereMetric(1.0)
    h_values, errors = [], []
    for n in grid_sizes:
        rule = build_grid(sphere, n)
        dist = np.sqrt(sphere_sq_geodesic(1.0, rule.nodes, rule.nodes))
        node = (n // 4 - 1) * rule.grid_shape[1]  # u = pi/4, v = 0
        fld = metric_field_from_distance(dist, rule)
        g = fld.tensor_at(node)
        u = rule.nodes[node, 0]
        g_true = np.diag([1.0, math.sin(u) ** 2])
        h_values.append(TWO_PI / n)
        errors.append(float(np.max(np.abs(g - g_true))))
    slope = _log_log_slope(h_values, errors)
    return h_values, errors, slope
