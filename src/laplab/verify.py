"""Scenario harness: the standard experiments S1 through S6.

Each scenario builds its own operators, runs whatever recovery it needs,
reduces the outcome to a few named discrepancy numbers, and compares them
against thresholds.  Thresholds carry a bucket label: "identity-exact" for
quantities that agree to rounding by construction, "asymptotic" for
quantities limited by grid resolution or sample size.  A scenario passes iff
every thresholded discrepancy is within bounds.

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
from .errors import InsufficientMaskError, InvalidParameterError
from .geometry import (
    TWO_PI,
    ChartPoint,
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    metric_sq_geodesic,
    sphere_sq_geodesic,
)
from .identify import (
    extract_weighted_kernel,
    metric_field_from_distance,
    recover_mass,
    report_payload,
    run_recovery,
)
from .operators import (
    DiscreteOperator,
    ExtrinsicKernel,
    IntrinsicKernel,
    build_operator,
    continuous_value,
    evaluate_discrete,
    operator_distance,
)

SCENARIO_IDS = ("S1", "S2", "S3", "S4", "S5", "S6")

# Fixed scenario parameters, echoed in every report's config.
ANISOTROPY = 2.0
BUMP_ALPHA = 0.5
SCALE = 1.5


@dataclass(frozen=True)
class Threshold:
    limit: object  # float, or (lo, hi) for op == "range"
    op: str        # "le", "gt", "range"
    bucket: str    # "identity-exact" or "asymptotic"

    def check(self, value: float) -> bool:
        if self.op == "le":
            return value <= self.limit
        if self.op == "gt":
            return value > self.limit
        lo, hi = self.limit
        return lo <= value <= hi

    def payload(self) -> dict:
        limit = list(self.limit) if self.op == "range" else self.limit
        return {"limit": limit, "op": self.op, "bucket": self.bucket}


THRESHOLDS: dict[str, dict[str, Threshold]] = {
    "S1": {
        "operator_distance": Threshold(1e-3, "gt", "asymptotic"),
        "monotonicity_margin": Threshold(0.0, "gt", "asymptotic"),
    },
    "S2": {
        "metric_max_error": Threshold(1e-3, "le", "identity-exact"),
        "density_max_rel_error": Threshold(1e-3, "le", "identity-exact"),
    },
    "S3": {
        "extrinsic_distance": Threshold(1e-14, "le", "identity-exact"),
        "intrinsic_distance": Threshold(1e-3, "gt", "asymptotic"),
    },
    "S4": {
        "extrinsic_distance": Threshold(1e-12, "le", "identity-exact"),
        "mass_max_diff": Threshold(1e-8, "le", "identity-exact"),
    },
    "S5": {
        "slope": Threshold((-0.65, -0.35), "range", "asymptotic"),
    },
    "S6": {
        "clifford_metric_max_error": Threshold(1e-3, "le", "asymptotic"),
        "sphere_equator_max_error": Threshold(5e-3, "le", "asymptotic"),
        "donut_tube_max_error": Threshold(1e-2, "le", "asymptotic"),
    },
}


@dataclass
class ScenarioConfig:
    scenario: str
    grid: int = 32
    bandwidth: float = 0.5
    seed: int = 1234
    n_values: tuple[int, ...] = (1000, 4000, 16000, 64000)
    n_seeds: int = 20
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
            "n_values": list(self.n_values),
            "n_seeds": self.n_seeds,
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
        th = THRESHOLDS[cfg.scenario][name]
        table[name] = th.payload()
        passed = passed and th.check(value)
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
    json.dump with an indent always runs the pure-Python encoder, so with one
    set, every flat list of numbers and nulls (a matrix row, a mass vector)
    goes through the C encoder of json.dumps and is re-indented: no float,
    NaN or Infinity text holds ", " or a bracket.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        if indent is None:
            json.dump(payload, fh, sort_keys=True)
        else:
            fh.write(_indented(payload, " " * indent, "\n"))
        fh.write("\n")


def _indented(obj, step: str, nl: str) -> str:
    """json.dumps(obj, indent=len(step), sort_keys=True) with obj's opening
    line ending in nl (a newline plus the indentation of that line)."""
    inner = nl + step
    if isinstance(obj, dict) and obj:
        items = (json.dumps(_key(k)) + ": " + _indented(v, step, inner)
                 for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not (isinstance(obj, (list, tuple)) and obj):
        return json.dumps(obj)
    if all(x is None or isinstance(x, (int, float)) for x in obj):
        return "[" + inner + json.dumps(obj)[1:-1].replace(", ", "," + inner) + nl + "]"
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
    base, _, _ = build_operator(IntrinsicKernel(flat), flat, UniformDensity(), n, t)
    factors = sorted({1.25, 1.5, ANISOTROPY})
    gaps = []
    for a in factors:
        aniso = TorusMetric.anisotropic(a)
        op_a, _, _ = build_operator(IntrinsicKernel(aniso), aniso, UniformDensity(), n, t)
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
    op, rule, p = build_operator(IntrinsicKernel(metric), metric, density, cfg.grid, cfg.bandwidth)
    report = run_recovery(op)

    g_true = metric.matrix()
    metric_err = float(np.max(np.abs(report.metric_field.tensors - g_true[None])))
    p_true = density_values(p, rule.nodes)[report.metric_field.indices]
    density_err = float(np.max(np.abs(report.density - p_true) / p_true))

    mass_true = density_values(p, rule.nodes) * rule.weights
    mass_err = float(np.max(np.abs(report.mass - mass_true) / mass_true))
    d_true = np.sqrt(metric_sq_geodesic(metric, rule.nodes, rule.nodes))
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
    ext = ExtrinsicKernel(CliffordTorus())
    n, t = cfg.grid, cfg.bandwidth
    ext1, _, _ = build_operator(ext, flat, UniformDensity(), n, t)
    ext2, _, _ = build_operator(ext, aniso, UniformDensity(), n, t)
    int1, _, _ = build_operator(IntrinsicKernel(flat), flat, UniformDensity(), n, t)
    int2, _, _ = build_operator(IntrinsicKernel(aniso), aniso, UniformDensity(), n, t)
    discrepancies = {
        "extrinsic_distance": operator_distance(ext1, ext2),
        "intrinsic_distance": operator_distance(int1, int2),
    }
    return _finish(cfg, discrepancies, {}, [])


def _scenario_s4(cfg: ScenarioConfig) -> ScenarioResult:
    flat = TorusMetric.flat()
    scaled = TorusMetric.scaled_flat(SCALE)
    ext = ExtrinsicKernel(CliffordTorus())
    op1, _, _ = build_operator(ext, flat, UniformDensity(), cfg.grid, cfg.bandwidth)
    op2, _, _ = build_operator(ext, scaled, UniformDensity(), cfg.grid, cfg.bandwidth)
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


def _eval_points(count: int = 8) -> list[ChartPoint]:
    """Deterministic, well-spread chart points (golden-ratio lattice)."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return [
        ChartPoint(TWO_PI * ((k * phi) % 1.0), TWO_PI * ((k * phi * phi) % 1.0))
        for k in range(1, count + 1)
    ]


@dataclass(frozen=True)
class ConvergenceResult:
    n_values: tuple[int, ...]
    errors: tuple[float, ...]       # mean RMS over seeds, one per n
    per_seed: np.ndarray            # (n_seeds, len(n_values))
    slope: float
    seed: int
    bandwidth: float
    reference_grid: int

    def to_csv(self, path) -> None:
        lines = [
            "# laplab convergence study",
            f"# version={__version__} seed={self.seed} bandwidth={self.bandwidth!r} "
            f"reference_grid={self.reference_grid} seeds={self.per_seed.shape[0]}",
            "n,rms_error",
        ]
        for n, e in zip(self.n_values, self.errors):
            lines.append(f"{n},{e!r}")
        lines.append(f"slope,{self.slope!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _s5_reference(rule, density, t, points, out_dir=None):
    """Continuous operator values at the evaluation points; with out_dir set,
    also written (never read) to s5_reference.json under a hash of the inputs."""
    mode = IntrinsicKernel(rule.metric)
    key_src = json.dumps(
        {
            "metric": [rule.metric.E, rule.metric.F, rule.metric.G],
            "density": density.label(),
            "t": t,
            "grid": list(rule.grid_shape),
            "f": "cos_u",
            "points": [[p.u, p.v] for p in points],
        },
        sort_keys=True,
    )
    key = hashlib.sha256(key_src.encode()).hexdigest()
    values = np.array(
        [continuous_value(mode, density, rule, t, _f_cos_u, x) for x in points]
    )
    if out_dir is not None:
        write_json({"key": key, "values": values.tolist()},
                   os.path.join(out_dir, "s5_reference.json"), indent=None)
    return values


def convergence_study(
    n_values=(1000, 4000, 16000, 64000),
    n_seeds: int = 20,
    bandwidth: float = 0.5,
    seed: int = 1234,
    reference_grid: int = 128,
    out_dir=None,
) -> ConvergenceResult:
    """Monte-Carlo error vs sample size, with a least-squares log-log slope.

    Seed index i at size n samples the flat torus from `seed + 1000003 i + n`;
    its error is the RMS over eight chart points of the Monte-Carlo minus the
    quadrature value of cos(u) on a reference_grid grid.
    """
    n_values = tuple(int(n) for n in n_values)
    if len(n_values) < 3 or list(n_values) != sorted(set(n_values)):
        raise InvalidParameterError("need at least 3 strictly increasing sample sizes")
    if n_seeds < 5:
        raise InvalidParameterError("need at least 5 seeds for a stable slope")

    metric = TorusMetric.flat()
    kernel = IntrinsicKernel(metric)
    rule = build_grid(metric, reference_grid)
    density = normalize_density(UniformDensity(), rule)
    points = _eval_points()
    ref = _s5_reference(rule, density, bandwidth, points, out_dir)
    del rule  # sampling needs only the density; free the reference grid
    per_seed = np.empty((n_seeds, len(n_values)))
    for i in range(n_seeds):
        for j, n in enumerate(n_values):
            samples = sample_points(density, metric, n, seed + 1000003 * i + n)
            dop = DiscreteOperator(samples, bandwidth, kernel)
            vals = np.array([evaluate_discrete(dop, _f_cos_u, x) for x in points])
            per_seed[i, j] = np.sqrt(np.mean((vals - ref) ** 2))
            del samples, dop  # free this cloud before the next one is drawn
    errors = tuple(float(e) for e in per_seed.mean(axis=0))
    slope = float(np.polyfit(np.log(n_values), np.log(errors), 1)[0])
    return ConvergenceResult(n_values, errors, per_seed, slope, seed, bandwidth, reference_grid)


def _scenario_s5(cfg: ScenarioConfig) -> ScenarioResult:
    study = convergence_study(
        n_values=cfg.n_values,
        n_seeds=cfg.n_seeds,
        bandwidth=cfg.bandwidth,
        seed=cfg.seed,
        out_dir=cfg.out_dir,
    )
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

    op, rule, _ = build_operator(ExtrinsicKernel(CliffordTorus()), flat, UniformDensity(), n, t)
    fld = run_recovery(op).metric_field
    clifford_err = float(np.max(np.abs(fld.tensors - np.eye(2)[None])))

    donut = DonutTorus(2.0, 1.0)
    op, rule, _ = build_operator(ExtrinsicKernel(donut), flat, UniformDensity(), n, t)
    fld = run_recovery(op).metric_field
    tube = np.flatnonzero(rule.nodes[fld.indices, 0] == 0.0)
    if tube.size == 0:
        raise InsufficientMaskError(
            "no full stencil on the donut's outer circle; kernel weights "
            "between its stencil nodes underflow the edge threshold at "
            f"grid {n}, bandwidth {t} (refine the grid or widen the bandwidth)"
        )
    g_true = np.diag([donut.minor**2, (donut.major + donut.minor) ** 2])
    donut_err = float(np.max(np.abs(fld.tensors[tube] - g_true[None])))

    op, rule, _ = build_operator(
        ExtrinsicKernel(UnitSphere()), SphereMetric(1.0), UniformDensity(), n, t
    )
    fld = run_recovery(op).metric_field
    equator = np.flatnonzero(np.abs(rule.nodes[fld.indices, 0] - math.pi / 2) < 1e-12)
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
        fld = metric_field_from_distance(dist, rule.grid_shape, rule.spacing, periodic_u=False)
        g = fld.tensor_at(node)
        u = rule.nodes[node, 0]
        g_true = np.diag([1.0, math.sin(u) ** 2])
        h_values.append(TWO_PI / n)
        errors.append(float(np.max(np.abs(g - g_true))))
    slope = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    return h_values, errors, slope
