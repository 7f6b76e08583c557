"""Assembly and evaluation of graph Laplace operators.

Given a quadrature rule, a normalized density p, and a space (a metric or an
embedding), the assembled matrix is

    L_ij = c * (delta_ij * sum_k W_ik - W_ij),      c = t^(-2)  (surface case),
    W_ij = exp(-dist(x_i, x_j)^2 / t) * p(x_j) * w_j,

where dist is geodesic distance of a metric (intrinsic) or ambient chord
distance of an embedding (extrinsic).  Rows sum to zero by construction,
off-diagonal entries are nonpositive, and L annihilates constants exactly.
Every bandwidth, given or read from a file, passes one check: t^2 and 1/t^2
finite and positive (about 7.5e-155 < t < 1.3e154).

`build_operator` is the one path from a metric, density, grid size,
bandwidth and optional embedding to an operator: grid, normalized density,
dense assembly.  Dense assembly takes each block of rows from squared
distances (per-axis tables for a torus metric on a tensor grid) to
entries of L while it sits in cache, in the order of the formula.  Its rows
split into contiguous ranges, one per CPU the process may run on and at most
one per 1024 rows, the first on the caller's thread and the others on a
thread pool; the bits do not depend on the split, nor, since no BLAS call
computes an entry, on the BLAS kernel the CPU selects.  It is capped at 64^2
nodes.  Above that, and for reference values at arbitrary chart points,
`continuous_value` evaluates single rows of the operator matrix-free.
`evaluate_discrete` is the Monte-Carlo counterpart on a sampled point cloud,
normalized by 1/(n t^2).  Both scale the m sums of one loop, `_kernel_sums`,
which takes one 1 x n distance row per point of an (m, 2) array.

An operator carries the quadrature rule it was assembled on, the one source
of its grid.  Operators serialize to a small binary format (header + nodes +
row-major float64 entries, little-endian throughout); see save_operator for
the layout.  load_operator rebuilds the rule from the measure and the grid
size and refuses a file whose grid disagrees with it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .discretization import (Density, QuadratureRule, build_grid, density_values,
                             normalize_density)
from .errors import InvalidParameterError, MalformedOperatorError, NodeMismatchError
from .geometry import (
    TWO_PI,
    CliffordTorus,
    DonutTorus,
    Embedding,
    Metric,
    Space,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    sq_dist,
    sq_dist_rows,
    torus_grid_rows,
)

DENSE_NODE_CAP = 64 * 64


def _check_bandwidth(t: float) -> None:
    """Refuse a bandwidth whose square or inverse square is not finite and positive."""
    if not (t > 0.0 and 0.0 < t * t < math.inf and 1.0 / (t * t) < math.inf):
        raise InvalidParameterError(
            "bandwidth t must be positive with t^2 and 1/t^2 finite and positive "
            f"(about 7.5e-155 < t < 1.3e154), got {t}"
        )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator with the quadrature rule it was assembled on.

    space is what the kernel measured distance in: a Metric for the intrinsic
    operator, an Embedding for the extrinsic one.  rule is the one source of
    the grid: its nodes, its shape and spacings, and the measure metric.
    """

    entries: np.ndarray
    t: float
    space: Space
    rule: QuadratureRule
    warning: Optional[str] = None

    @property
    def n(self) -> int:
        return self.rule.n


def _node_sq_dist(space: Space, rule: QuadratureRule, out: np.ndarray):
    """sq_dist_rows between all nodes into out; per-axis tables on a torus grid."""
    (nu, nv), x = rule.grid_shape, rule.nodes
    if isinstance(space, TorusMetric) and min(nu, nv) > 0 and nu * nv == rule.n:
        u, v = x[::nv, 0], x[:nv, 1]
        if np.array_equal(x[:, 0], np.repeat(u, nv)) and np.array_equal(x[:, 1], np.tile(v, nu)):
            return torus_grid_rows(space, u, v, out)
    return sq_dist_rows(space, x, x, out)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(n: int) -> int:
    """Threads for a pass over n rows: one per CPU the process may run on and
    at most one per 1024 rows, so grids up to 32 start no thread and grid 64
    takes at most 4."""
    return max(1, min(_cpus(), n // 1024))


def _fill_rows(blocks, w: np.ndarray, pw: np.ndarray, t: float) -> int:
    """Turn each block of squared distances in w into rows of L, in place, in the
    order of the formula; returns how many of its rows have no off-diagonal weight."""
    n, c, dead = len(w), t ** -2.0, 0
    for lo, hi in blocks:
        blk = w[lo:hi]
        diag = blk.reshape(-1)[lo::n + 1]  # entries (i, i) of these rows
        # a quotient that overflows is -inf, whose exp is the 0 it would round to anyway
        with np.errstate(over="ignore"):
            blk /= -t
        np.exp(blk, out=blk)
        blk *= pw
        deg, diag_w = blk.sum(axis=1), diag.copy()
        diag[...] = 0.0
        dead += int((blk.max(axis=1) == 0.0).sum())
        blk *= -c
        diag[...] = c * (deg - diag_w)
    return dead


def assemble_continuous(
    space: Space,
    density: Density,
    rule: QuadratureRule,
    t: float,
) -> OperatorMatrix:
    """Assemble the dense quadrature approximation of the kernel operator of space.

    The density must be normalized against `rule`, and space must live on
    the chart of rule.metric.  Bandwidth t must pass _check_bandwidth.
    Refuses grids beyond 64^2 nodes; use continuous_value there.

    The n rows split into k = _threads(n) = max(1, min(CPUs, n // 1024))
    contiguous ranges of about n / k rows.  k - 1 of them run on a thread
    pool, the first on the caller's thread; every entry gets the same
    operations whatever k is, so the bits do not depend on it.  Only this
    thread calls a public laplab function.  The first range to raise is
    raised once every range stopped.
    """
    _check_chart(space, rule.metric)
    _check_bandwidth(t)
    if rule.n > DENSE_NODE_CAP:
        raise InvalidParameterError(
            f"dense assembly is capped at {DENSE_NODE_CAP} nodes (got {rule.n}); "
            "matrix-free evaluation handles larger grids"
        )
    pw = density_values(density, rule.nodes) * rule.weights
    n = rule.n
    w = np.empty((n, n))
    rows = _node_sq_dist(space, rule, w)
    k = _threads(n)
    bounds = [i * n // k for i in range(k + 1)]
    from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import time

    def fill(i: int) -> int:
        return _fill_rows(rows(bounds[i], bounds[i + 1]), w, pw, t)

    # leaving the block waits for every range; result() raises the first failure
    with ThreadPoolExecutor(max(1, k - 1)) as pool:
        futures = [pool.submit(fill, i) for i in range(1, k)]
        dead = fill(0)
    dead, warning = dead + sum(f.result() for f in futures), None
    if dead:
        warning = (
            f"{dead} rows have fully underflowed off-diagonal kernels; "
            f"bandwidth {t} is too small for the grid spacing"
        )
    return OperatorMatrix(entries=w, t=t, space=space, rule=rule, warning=warning)


def build_operator(
    metric: Metric, density: Density, n: int, t: float, embedding: Optional[Embedding] = None
) -> tuple[OperatorMatrix, Density]:
    """Operator on the n-grid of metric (its op.rule), with the normalized density.

    The kernel measures distance in embedding (extrinsic), or in metric when
    embedding is None (intrinsic).
    """
    if n > 0 and n * n > DENSE_NODE_CAP:  # above the cap on both charts; refused unbuilt
        raise InvalidParameterError(
            f"dense assembly is capped at {DENSE_NODE_CAP} nodes, grid 64 (got grid {n})")
    rule = build_grid(metric, n)
    p = normalize_density(density, rule)
    return assemble_continuous(metric if embedding is None else embedding, p, rule, t), p


def operator_distance(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Max-abs entrywise discrepancy between two operators on the same grid;
    each entry carries its cell weight, so it shrinks as 1/N^2 on an N-grid."""
    if a.t != b.t or not np.array_equal(a.rule.nodes, b.rule.nodes):
        raise NodeMismatchError("operators do not share nodes and bandwidth")
    return float(np.max(np.abs(a.entries - b.entries)))


def _chart_points(points) -> np.ndarray:
    """points as an (m, 2) float64 array reduced into [0, 2 pi), as Python's % reduces."""
    return np.remainder(np.atleast_2d(np.asarray(points, dtype=np.float64)), TWO_PI)


def _kernel_sums(space: Space, x: np.ndarray, weights: Optional[np.ndarray], t: float,
                 f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """sum_j exp(-dist(p, x_j)^2/t) w_j (f(p) - f(x_j)) at each p in points.

    x is (n, 2), weights its n weights, or None for weight 1 (a point cloud).
    points is reduced into [0, 2 pi) on entry; f is evaluated on x once.
    Each point takes its own 1 x n row of squared distances and turns it into
    the terms in place.
    """
    points = _chart_points(points)
    f_x = np.asarray(f(x))
    sums = np.empty(len(points))
    for i, p in enumerate(points[:, None]):  # p is one (1, 2) row
        terms = sq_dist(space, p, x)[0]
        terms /= -t
        np.exp(terms, out=terms)
        if weights is not None:
            terms *= weights
        terms *= float(np.asarray(f(p))[0]) - f_x
        sums[i] = terms.sum()
        del terms  # free this row before the next one is computed
    return sums


def continuous_value(
    space: Space,
    density: Density,
    rule: QuadratureRule,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
) -> np.ndarray:
    """Matrix-free rows: the quadrature operator applied to f at each point.

    points is an (m, 2) array of chart coordinates, reduced into [0, 2 pi) on
    entry; they need not be grid nodes.  f maps (n, 2) chart coordinates to
    values.  Returns m values, each with the bits of a one-point call.
    """
    _check_bandwidth(t)
    pw = density_values(density, rule.nodes) * rule.weights
    return _kernel_sums(space, rule.nodes, pw, t, f, points) * t ** -2.0


# ---------------------------------------------------------------------------
# Monte-Carlo (point cloud) operator
# ---------------------------------------------------------------------------


def evaluate_discrete(
    space: Space,
    points: np.ndarray,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    eval_points: np.ndarray,
) -> np.ndarray:
    """(1/(n t^2)) sum_j exp(-dist(x, X_j)^2/t) (f(x) - f(X_j)) at each x in eval_points.

    points is the (n, 2) sample X_1..X_n and dist is measured in space; t
    must pass _check_bandwidth.  eval_points is an (m, 2) array of chart
    coordinates, reduced into [0, 2 pi) on entry.  f is evaluated on the
    sample once per call.  Sample points coinciding with x contribute zero
    terms.
    """
    _check_bandwidth(t)
    return _kernel_sums(space, points, None, t, f, eval_points) / (len(points) * t**2)


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

# kind byte of a parameter block: metrics below 10, embeddings from 10 on
_KINDS = {TorusMetric: 0, SphereMetric: 1, CliffordTorus: 10, DonutTorus: 11, UnitSphere: 12}
_SPACES = {kind: cls for cls, kind in _KINDS.items()}
# chart of each space, the header's chart tag: 0 the torus chart, 1 the sphere's
_CHARTS = {TorusMetric: 0, SphereMetric: 1, CliffordTorus: 0, DonutTorus: 0, UnitSphere: 1}


def _check_chart(space: Space, metric: Metric) -> None:
    """Refuse a kernel space on another chart than the measure metric."""
    if _CHARTS[type(space)] != _CHARTS[type(metric)]:
        raise InvalidParameterError(f"kernel space {type(space).__name__} lives on another "
                                    f"chart than measure metric {type(metric).__name__}")


def _pack(space: Space) -> bytes:
    """A parameter block: the space's kind, then its fields padded with 0.0 to three."""
    return _PARAM.pack(_KINDS[type(space)], *(dataclasses.astuple(space) + (0.0,) * 3)[:3])


def _unpack(blob: bytes, metric: bool) -> Space:
    """The space of a parameter block, which must hold a metric kind iff metric."""
    kind, *params = _PARAM.unpack(blob)
    cls = _SPACES.get(kind)
    if cls is None or (kind < 10) != metric:
        raise MalformedOperatorError(
            f"unknown {'metric' if metric else 'embedding'} kind {kind} in operator file")
    return cls(*params[:len(dataclasses.fields(cls))])


def save_operator(op: OperatorMatrix, path) -> None:
    """Write the binary operator format.

    Layout, little-endian: magic 'LLOP', u16 version, u8 mode tag
    (0 intrinsic / 1 extrinsic), u8 chart tag (_CHARTS of the measure:
    0 torus / 1 sphere), u32 node count, u32 x 2 grid shape; f64 bandwidth
    and the two chart spacings; one kernel parameter block and one
    measure-metric block (u8 kind from _KINDS + 3 f64); then the nodes as
    n x 2 f64 and the entries as n x n row-major f64.  The grid fields all
    come from op.rule.
    """
    kernel, rule = _pack(op.space), op.rule
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, int(kernel[0] >= 10),
                            _CHARTS[type(rule.metric)], op.n, *rule.grid_shape))
        fh.write(_BAND.pack(op.t, *rule.spacing))
        fh.write(kernel)
        fh.write(_pack(rule.metric))
        fh.write(np.ascontiguousarray(rule.nodes, dtype="<f8"))
        fh.write(np.ascontiguousarray(op.entries, dtype="<f8"))


def _check_size(fh, expected: int, kind: str) -> None:
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise MalformedOperatorError(
            f"{kind} file holds {size} bytes; its header implies {expected}")


def load_operator(path) -> OperatorMatrix:
    """Read an operator written by save_operator, on the rule build_grid(measure, nv).

    The file size must be exactly what the header implies, the bandwidth and
    the kernel and measure parameters must pass the checks their constructors
    make, and the kernel must live on the measure's chart.  The grid shape,
    spacings and nodes must be the rule's, bit for bit, before the entries
    are read.
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
        try:
            _check_bandwidth(t)
            space = _unpack(head[-2 * _PARAM.size:-_PARAM.size], mode_tag == 0)
            measure = _unpack(head[-_PARAM.size:], True)
            _check_chart(space, measure)
            if _CHARTS[type(measure)] != chart:
                raise MalformedOperatorError("chart tag contradicts the measure metric")
            # N x N on the torus chart, (N-1) x N on the sphere's; checked before
            # build_grid, so that no grid is built larger than the node count
            if nu != nv - chart:
                raise MalformedOperatorError(f"grid shape {nu}x{nv} is not a grid of its chart")
            rule = build_grid(measure, nv)
        except InvalidParameterError as exc:
            raise MalformedOperatorError(f"operator file: {exc}") from None
        if (du, dv) != rule.spacing:
            raise MalformedOperatorError(
                f"spacings {du}, {dv} are not the grid's {rule.spacing[0]}, {rule.spacing[1]}")
        if fh.read(16 * n) != np.ascontiguousarray(rule.nodes, dtype="<f8").tobytes():
            raise MalformedOperatorError("nodes are not the grid's nodes")
        entries = np.empty((n, n), dtype="<f8")
        fh.readinto(entries)
    return OperatorMatrix(entries=entries, t=t, space=space, rule=rule)


_MX_MAGIC = b"LLMX"
_MX_HEAD = struct.Struct("<4sHII")


def save_matrix(blocks, path, shape) -> None:
    """Bare binary matrix: magic 'LLMX', u16 version, u32 rows, u32 cols,
    then row-major little-endian float64.

    blocks is an iterable of row blocks that fill the (rows, cols) matrix
    shape from the top; each block is written as it arrives, so the whole
    matrix never needs to be in memory.
    """
    with open(path, "wb") as fh:
        fh.write(_MX_HEAD.pack(_MX_MAGIC, _VERSION, *shape))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


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
