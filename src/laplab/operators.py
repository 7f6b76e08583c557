"""Assembly and evaluation of graph Laplace operators.

Given a quadrature rule, a normalized density p, and a kernel mode, the
assembled matrix is

    L_ij = c * (delta_ij * sum_k W_ik - W_ij),      c = t^(-2)  (surface case),
    W_ij = exp(-dist(x_i, x_j)^2 / t) * p(x_j) * w_j,

where dist is geodesic distance in intrinsic mode and ambient chord distance
of an embedding in extrinsic mode.  Rows sum to zero by construction,
off-diagonal entries are nonpositive, and L annihilates constants exactly.
Every bandwidth, given or read from a file, passes one check: t^2 and 1/t^2
finite and positive (about 7.5e-155 < t < 1.3e154).

`build_operator` is the one path from a metric, density, grid size and
bandwidth to an operator: grid, normalized density, dense assembly.  Dense
assembly turns one n x n distance table into L in place, by the same
operations in the same order as the formula; a diagonal torus metric on a
tensor grid builds that table from per-axis wrap minima.  It is capped at
64^2 nodes.  Above that, and for reference values at arbitrary chart points,
`continuous_value` evaluates single rows of the operator matrix-free.
`evaluate_discrete` is the Monte-Carlo counterpart on a sampled point cloud,
normalized by 1/(n t^2).

Operators serialize to a small binary format (header + nodes + row-major
float64 entries, little-endian throughout); see save_operator for the layout.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .discretization import (Density, QuadratureRule, SampleSet, build_grid,
                             density_values, normalize_density)
from .errors import InvalidParameterError, MalformedOperatorError, NodeMismatchError
from .geometry import (
    ChartPoint,
    CliffordTorus,
    DonutTorus,
    Embedding,
    Metric,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    ambient_sq_dist,
    metric_sq_geodesic,
    torus_grid_sq_geodesic,
)

DENSE_NODE_CAP = 64 * 64


@dataclass(frozen=True)
class IntrinsicKernel:
    """Gaussian kernel of geodesic distance for the given metric."""

    metric: Metric


@dataclass(frozen=True)
class ExtrinsicKernel:
    """Gaussian kernel of ambient chord distance for the given embedding."""

    embedding: Embedding


KernelMode = Union[IntrinsicKernel, ExtrinsicKernel]


def _check_bandwidth(t: float) -> None:
    """Refuse a bandwidth whose square or inverse square is not finite and positive."""
    if not (t > 0.0 and 0.0 < t * t < math.inf and 1.0 / (t * t) < math.inf):
        raise InvalidParameterError(
            "bandwidth t must be positive with t^2 and 1/t^2 finite and positive "
            f"(about 7.5e-155 < t < 1.3e154), got {t}"
        )


def kernel_sq_dist(mode: KernelMode, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if isinstance(mode, IntrinsicKernel):
        return metric_sq_geodesic(mode.metric, p, q)
    return ambient_sq_dist(mode.embedding, p, q)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator with the grid metadata needed to invert it later."""

    entries: np.ndarray
    nodes: np.ndarray
    t: float
    mode: KernelMode
    measure_metric: Metric
    grid_shape: tuple[int, int]
    spacing: tuple[float, float]
    warning: Optional[str] = None

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def _node_sq_dist(mode: KernelMode, rule: QuadratureRule) -> np.ndarray:
    """kernel_sq_dist between all nodes; per-axis tables on a diagonal torus grid."""
    m, (nu, nv), x = getattr(mode, "metric", None), rule.grid_shape, rule.nodes
    if isinstance(m, TorusMetric) and m.F == 0.0 and min(nu, nv) > 0 and nu * nv == rule.n:
        u, v = x[::nv, 0], x[:nv, 1]
        if np.array_equal(x[:, 0], np.repeat(u, nv)) and np.array_equal(x[:, 1], np.tile(v, nu)):
            return torus_grid_sq_geodesic(m, u, v)
    return kernel_sq_dist(mode, x, x)


def assemble_continuous(
    mode: KernelMode,
    density: Density,
    rule: QuadratureRule,
    t: float,
) -> OperatorMatrix:
    """Assemble the dense quadrature approximation of the kernel operator.

    The density must be normalized against `rule`.  Bandwidth t must pass
    _check_bandwidth.  Refuses grids beyond 64^2 nodes; use continuous_value there.
    """
    _check_bandwidth(t)
    if rule.n > DENSE_NODE_CAP:
        raise InvalidParameterError(
            f"dense assembly is capped at {DENSE_NODE_CAP} nodes (got {rule.n}); "
            "matrix-free evaluation handles larger grids"
        )
    pw = density_values(density, rule.nodes) * rule.weights
    w = _node_sq_dist(mode, rule)
    # a quotient that overflows is -inf, whose exp is the 0 it would round to anyway
    with np.errstate(over="ignore"):
        w /= -t
    np.exp(w, out=w)
    w *= pw
    deg = w.sum(axis=1)
    diag_w = np.diagonal(w).copy()
    np.fill_diagonal(w, 0.0)
    dead = int((w.max(axis=1) == 0.0).sum())
    c = t ** -2.0
    w *= -c
    np.fill_diagonal(w, c * (deg - diag_w))

    warning = None
    if dead:
        warning = (
            f"{dead} rows have fully underflowed off-diagonal kernels; "
            f"bandwidth {t} is too small for the grid spacing"
        )
    return OperatorMatrix(
        entries=w,
        nodes=rule.nodes,
        t=t,
        mode=mode,
        measure_metric=rule.metric,
        grid_shape=rule.grid_shape,
        spacing=rule.spacing,
        warning=warning,
    )


def build_operator(
    kernel: KernelMode, metric: Metric, density: Density, n: int, t: float
) -> tuple[OperatorMatrix, QuadratureRule, Density]:
    """Operator of kernel on the n-grid of metric, with its rule and normalized density."""
    rule = build_grid(metric, n)
    p = normalize_density(density, rule)
    return assemble_continuous(kernel, p, rule, t), rule, p


def apply_operator(op: OperatorMatrix, f: np.ndarray) -> np.ndarray:
    """Matrix-vector product L f for node values f."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.n,):
        raise InvalidParameterError(
            f"function values must have shape ({op.n},), got {f.shape}"
        )
    return op.entries @ f


def operator_distance(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Max-abs entrywise discrepancy between two operators on the same grid."""
    if a.t != b.t or not np.array_equal(a.nodes, b.nodes):
        raise NodeMismatchError("operators do not share nodes and bandwidth")
    return float(np.max(np.abs(a.entries - b.entries)))


def continuous_value(
    mode: KernelMode,
    density: Density,
    rule: QuadratureRule,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    x: ChartPoint,
) -> float:
    """One matrix-free row: the quadrature operator applied to f at point x.

    x need not be a grid node.  f maps (n, 2) chart coordinates to values.
    """
    _check_bandwidth(t)
    p = x.as_array()[None, :]
    d2 = kernel_sq_dist(mode, p, rule.nodes)[0]
    k = np.exp(d2 / -t)
    pw = density_values(density, rule.nodes) * rule.weights
    fx = float(np.asarray(f(p))[0])
    return float(t ** -2.0 * np.dot(k * pw, fx - np.asarray(f(rule.nodes))))


# ---------------------------------------------------------------------------
# Monte-Carlo (point cloud) operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Empirical operator over an i.i.d. sample, bandwidth t, kernel mode."""

    samples: SampleSet
    t: float
    mode: KernelMode

    def __post_init__(self):
        _check_bandwidth(self.t)


def evaluate_discrete(
    dop: DiscreteOperator,
    f: Callable[[np.ndarray], np.ndarray],
    x: ChartPoint,
) -> float:
    """(1/(n t^2)) sum_j exp(-dist(x, X_j)^2/t) (f(x) - f(X_j)).

    Sample points coinciding with x contribute zero terms.
    """
    pts = dop.samples.points
    p = x.as_array()[None, :]
    d2 = kernel_sq_dist(dop.mode, p, pts)[0]
    fx = float(np.asarray(f(p))[0])
    terms = np.exp(d2 / -dop.t) * (fx - np.asarray(f(pts)))
    return float(terms.sum() / (dop.samples.n * dop.t**2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"LLOP"
_VERSION = 1

# header: magic, version, mode tag, chart tag, n, nu, nv  |  t, du, dv
_HEAD = struct.Struct("<4sHBBIII")
_BAND = struct.Struct("<ddd")
# parameter block: one kind byte plus three float parameters
_PARAM = struct.Struct("<Bddd")
# everything before the nodes
_PREAMBLE = _HEAD.size + _BAND.size + 2 * _PARAM.size

_KIND_TORUS_METRIC = 0
_KIND_SPHERE_METRIC = 1
_KIND_CLIFFORD = 10
_KIND_DONUT = 11
_KIND_UNIT_SPHERE = 12


def _pack_metric(metric: Metric) -> bytes:
    if isinstance(metric, TorusMetric):
        return _PARAM.pack(_KIND_TORUS_METRIC, metric.E, metric.F, metric.G)
    return _PARAM.pack(_KIND_SPHERE_METRIC, metric.radius, 0.0, 0.0)


def _unpack_metric(blob: bytes) -> Metric:
    kind, p1, p2, p3 = _PARAM.unpack(blob)
    if kind == _KIND_TORUS_METRIC:
        return TorusMetric(p1, p2, p3)
    if kind == _KIND_SPHERE_METRIC:
        return SphereMetric(p1)
    raise MalformedOperatorError(f"unknown metric kind {kind} in operator file")


def _pack_mode(mode: KernelMode) -> bytes:
    if isinstance(mode, IntrinsicKernel):
        return _pack_metric(mode.metric)
    emb = mode.embedding
    if isinstance(emb, CliffordTorus):
        return _PARAM.pack(_KIND_CLIFFORD, 0.0, 0.0, 0.0)
    if isinstance(emb, DonutTorus):
        return _PARAM.pack(_KIND_DONUT, emb.major, emb.minor, 0.0)
    return _PARAM.pack(_KIND_UNIT_SPHERE, 0.0, 0.0, 0.0)


def _unpack_mode(mode_tag: int, blob: bytes) -> KernelMode:
    kind, p1, p2, _ = _PARAM.unpack(blob)
    if mode_tag == 0:
        return IntrinsicKernel(_unpack_metric(blob))
    if kind == _KIND_CLIFFORD:
        return ExtrinsicKernel(CliffordTorus())
    if kind == _KIND_DONUT:
        return ExtrinsicKernel(DonutTorus(p1, p2))
    if kind == _KIND_UNIT_SPHERE:
        return ExtrinsicKernel(UnitSphere())
    raise MalformedOperatorError(f"unknown embedding kind {kind} in operator file")


def save_operator(op: OperatorMatrix, path) -> None:
    """Write the binary operator format.

    Layout, little-endian: magic 'LLOP', u16 version, u8 mode tag
    (0 intrinsic / 1 extrinsic), u8 chart tag (0 torus / 1 sphere), u32 node
    count, u32 x 2 grid shape; f64 bandwidth and the two chart spacings; one
    kernel parameter block and one measure-metric block (u8 kind + 3 f64);
    then the nodes as n x 2 f64 and the entries as n x n row-major f64.
    """
    chart = 0 if isinstance(op.measure_metric, TorusMetric) else 1
    mode_tag = 0 if isinstance(op.mode, IntrinsicKernel) else 1
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, mode_tag, chart,
                            op.n, op.grid_shape[0], op.grid_shape[1]))
        fh.write(_BAND.pack(op.t, op.spacing[0], op.spacing[1]))
        fh.write(_pack_mode(op.mode))
        fh.write(_pack_metric(op.measure_metric))
        fh.write(np.ascontiguousarray(op.nodes, dtype="<f8"))
        fh.write(np.ascontiguousarray(op.entries, dtype="<f8"))


def _check_size(fh, expected: int, kind: str) -> None:
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise MalformedOperatorError(
            f"{kind} file holds {size} bytes; its header implies {expected}")


def load_operator(path) -> OperatorMatrix:
    """Read an operator written by save_operator.

    The file size must be exactly what the header implies, the spacings must
    be finite and positive, and the bandwidth and the kernel and measure
    parameters must pass the checks their constructors make, before any
    payload is read.
    """
    with open(path, "rb") as fh:
        head = fh.read(_PREAMBLE)
        if len(head) < _PREAMBLE:
            raise MalformedOperatorError("operator file truncated in header")
        magic, version, mode_tag, chart, n, nu, nv = _HEAD.unpack_from(head)
        if magic != _MAGIC:
            raise MalformedOperatorError("not an operator file (bad magic)")
        if version != _VERSION:
            raise MalformedOperatorError(f"unsupported operator format version {version}")
        if mode_tag not in (0, 1):
            raise MalformedOperatorError(f"unknown mode tag {mode_tag} in operator file")
        if n == 0 or nu * nv != n:
            raise MalformedOperatorError(f"grid shape {nu}x{nv} and node count {n} do not agree")
        _check_size(fh, _PREAMBLE + 8 * n * (n + 2), "operator")
        t, du, dv = _BAND.unpack_from(head, _HEAD.size)
        if not (0.0 < du < math.inf and 0.0 < dv < math.inf):
            raise MalformedOperatorError(f"spacings must be finite and positive, got {du}, {dv}")
        try:
            _check_bandwidth(t)
            mode = _unpack_mode(mode_tag, head[-2 * _PARAM.size:-_PARAM.size])
            measure = _unpack_metric(head[-_PARAM.size:])
        except InvalidParameterError as exc:
            raise MalformedOperatorError(f"operator file: {exc}") from None
        if (0 if isinstance(measure, TorusMetric) else 1) != chart:
            raise MalformedOperatorError("chart tag contradicts the measure metric")
        nodes = np.empty((n, 2), dtype="<f8")
        entries = np.empty((n, n), dtype="<f8")
        fh.readinto(nodes)
        fh.readinto(entries)
    return OperatorMatrix(
        entries=entries,
        nodes=nodes,
        t=t,
        mode=mode,
        measure_metric=measure,
        grid_shape=(nu, nv),
        spacing=(du, dv),
    )


_MX_MAGIC = b"LLMX"
_MX_HEAD = struct.Struct("<4sHII")


def save_matrix(m: np.ndarray, path) -> None:
    """Bare binary matrix: magic 'LLMX', u16 version, u32 rows, u32 cols,
    then row-major little-endian float64."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(_MX_HEAD.pack(_MX_MAGIC, _VERSION, m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8"))


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix; its size must match its header."""
    with open(path, "rb") as fh:
        head = fh.read(_MX_HEAD.size)
        if len(head) < _MX_HEAD.size:
            raise MalformedOperatorError("matrix file truncated in header")
        magic, version, rows, cols = _MX_HEAD.unpack(head)
        if magic != _MX_MAGIC or version != _VERSION:
            raise MalformedOperatorError("not a laplab matrix file")
        _check_size(fh, _MX_HEAD.size + 8 * rows * cols, "matrix")
        data = np.empty((rows, cols), dtype="<f8")
        fh.readinto(data)
    return data
