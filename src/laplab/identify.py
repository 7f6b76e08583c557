"""Recovery of kernel, masses, distances, metric, and density from an operator.

The assembled operator has the form L = c (diag(W 1) - W) with
W_ij = K(x_i, x_j) m_j, where K is a symmetric Gaussian kernel of squared
distance and m_j = p(x_j) w_j is the mass carried by node j.  Off-diagonal
entries therefore hand back W directly; the diagonal of W is not observable
and is treated as unknown throughout.

Kernel symmetry gives the ratio identity W_ij / W_ji = m_j / m_i, which
propagates masses along any spanning tree of the thresholded kernel graph up
to one global factor, fixed by normalizing to total mass one.  Dividing the
masses out of W gives kernel values, a logarithm turns them into squared
distances, and a mixed second difference of squared distance across grid
neighbors yields the metric tensor:

    g_jk(x) = -1/2 * d^2/ds dt [ dist^2(x + s e_j, x + t e_k) ] at s = t = 0,

realized as the four-point cross stencil on the grid.  The density finally
falls out of the mass per chart cell divided by the recovered volume form.

For kernels built from chord distance of an embedding, the same stencil
applied to recovered squared chord distance converges to the induced metric
of the embedding (chords osculate geodesics to second order).  The chord bias
is O(h^2) with a visible constant at practical grid sizes, so run_recovery
adds one Richardson step (stencils at spacing h and 2h) whenever the operator
is extrinsic, pushing it to O(h^4).

The stencil reads distances only at O(n) neighbor pairs, so run_recovery
computes them only there; the dense n x n kernel and distance matrices of a
RecoveryReport are built on first read (an embedded or externalized report,
or library use), by the same operations, with the same bits.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__
from .errors import (
    ConditioningError,
    InconsistencyError,
    InsufficientMaskError,
    MalformedOperatorError,
    UnrecoverableMassError,
)
from .geometry import TorusMetric
from .operators import ExtrinsicKernel, OperatorMatrix, save_matrix

# Off-diagonal kernel weights at or below this threshold are treated as
# absent edges: below it, log-inversion noise swamps the signal.
EDGE_THRESHOLD = 1e-12

# Recovered kernel values may exceed 1 by at most this much before the
# operator is declared inconsistent (beyond rounding of a true kernel).
KERNEL_SLACK = 1e-8

_ROW_SUM_TOL = 1e-10
_NEGATIVE_TOL = 1e-14

# Edge of the square tiles that the transposed passes (sym, symmetrization)
# walk, so that a tile and its mirror stay in cache together.
_TILE = 64


def _tiles(n: int) -> list[slice]:
    return [slice(a, min(a + _TILE, n)) for a in range(0, n, _TILE)]


@dataclass(frozen=True, eq=False)
class WeightedKernel:
    """Off-diagonal kernel weights W_ij = K_ij m_j with an edge mask.

    w has NaN on the diagonal (unknown by construction); mask is True where
    an entry is usable, always False on the diagonal; sym is True where both
    directions are.
    """

    w: np.ndarray
    mask: np.ndarray
    t: float

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @cached_property
    def sym(self) -> np.ndarray:
        mask, tiles = self.mask, _tiles(self.n)
        sym = np.empty_like(mask)
        for a in tiles:
            for b in tiles:
                np.logical_and(mask[a, b], mask[b, a].T, out=sym[a, b])
        return sym


@dataclass(frozen=True, eq=False)
class MetricField:
    """Recovered 2x2 tensors at a subset of grid nodes."""

    indices: np.ndarray
    tensors: np.ndarray

    def tensor_at(self, node_index: int) -> np.ndarray:
        pos = np.flatnonzero(self.indices == node_index)
        if pos.size == 0:
            raise InsufficientMaskError(
                f"no recovered tensor at node {node_index}"
            )
        return self.tensors[pos[0]]


@dataclass(eq=False)
class RecoveryReport:
    """Everything the inverse pipeline can say about one operator.

    The dense n x n kernel and distance matrices are not stored: `kernel` and
    `distance` build both through recover_kernel_distance(wk, mass) on first
    read and cache them, so a report that never reads them never pays for them.
    """

    mass: np.ndarray
    wk: WeightedKernel
    metric_field: MetricField
    density: np.ndarray
    t: float
    grid_shape: tuple[int, int]
    spacing: tuple[float, float]
    errors: dict = field(default_factory=dict)

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return recover_kernel_distance(self.wk, self.mass)

    @property
    def kernel(self) -> np.ndarray:
        return self._matrices[0]

    @property
    def distance(self) -> np.ndarray:
        return self._matrices[1]


def extract_weighted_kernel(op: OperatorMatrix) -> WeightedKernel:
    """Read W off the off-diagonal entries of a well-formed operator.

    Checks: every entry is finite, row sums vanish to 1e-10, off-diagonal
    entries have the right sign (tiny negatives from rounding are clipped),
    no row is entirely disconnected.
    """
    worst = float(np.max(np.abs(op.entries @ np.ones(len(op.entries)))))
    # a NaN or infinite entry makes its row sum non-finite
    if not np.isfinite(worst):
        raise MalformedOperatorError("operator has non-finite entries")
    if worst > _ROW_SUM_TOL:
        raise MalformedOperatorError(
            f"row sums reach {worst:.3e}; operator does not annihilate constants"
        )
    w = op.entries * (-op.t**2)
    # the NaN diagonal fails every comparison below; it needs no mask of its own
    np.fill_diagonal(w, np.nan)
    low = float(np.nanmin(w))
    if low < -_NEGATIVE_TOL:
        raise MalformedOperatorError(
            f"positive off-diagonal operator entry (kernel weight {low:.3e} < 0)"
        )
    w[w < 0.0] = 0.0
    if not (w > 0.0).any(axis=1).all():
        raise MalformedOperatorError("a node has an all-zero kernel row")
    return WeightedKernel(w=w, mask=w > EDGE_THRESHOLD, t=op.t)


def recover_mass(wk: WeightedKernel, refine: bool = False) -> np.ndarray:
    """Node masses m_j = p(x_j) w_j up to normalization sum(m) = 1.

    Propagates log-mass differences log(W_ij / W_ji) over a breadth-first
    spanning tree of the symmetric edge mask.  With refine=True the tree
    solution is replaced by the least-squares fit over all masked edges
    (normal equations on the edge graph; O(n^3) dense solve).
    """
    n, w, sym = wk.n, wk.w, wk.sym
    logm = np.full(n, np.nan)
    logm[0] = 0.0
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        nbrs = np.flatnonzero(sym[i] & ~seen)
        if nbrs.size == 0:
            continue
        logm[nbrs] = logm[i] + (np.log(w[i, nbrs]) - np.log(w[nbrs, i]))
        seen[nbrs] = True
        queue.extend(nbrs.tolist())
    if not seen.all():
        missing = int((~seen).sum())
        raise UnrecoverableMassError(
            f"kernel graph is disconnected; {missing} nodes unreachable from node 0"
        )

    if refine:
        # log W on symmetric edges, 0 elsewhere (log 1)
        logw = np.log(np.where(sym, w, 1.0))
        ratio = logw - logw.T
        deg = sym.sum(axis=1).astype(np.float64)
        lap = np.diag(deg) - sym.astype(np.float64)
        rhs = ratio.sum(axis=0)
        # gauge: the all-ones direction is null, pin it with a rank-one shift
        lap += 1.0 / n
        logm = np.linalg.solve(lap, rhs)

    m = np.exp(logm - logm.max())
    return m / m.sum()


def recover_kernel_distance(
    wk: WeightedKernel, mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values and pairwise distances implied by W and the masses.

    K_ij = W_ij / m_j on masked entries, clamped into (0, 1], diagonal set
    to 1.  Distances d_ij = sqrt(-t log K_ij) where both directions are
    masked, symmetrized by averaging; NaN elsewhere, zero diagonal.
    Masked kernel values above 1 + 1e-8 mean the matrix was not a kernel
    operator and raise an inconsistency error.
    """
    khat = wk.w / mass[None, :]
    _check_kernel_bound(float(khat.max(where=wk.mask, initial=-np.inf)))
    np.minimum(khat, 1.0, out=khat, where=wk.mask)
    np.fill_diagonal(khat, 1.0)

    d = np.full_like(khat, np.nan)
    np.log(khat, out=d, where=wk.sym)
    d *= -wk.t
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    # d <- (d + d.T) / 2 in place, tile by tile: the same sums in either order
    tiles = _tiles(wk.n)
    for k, a in enumerate(tiles):
        for b in tiles[k:]:
            s = d[a, b] + d[b, a].T
            s *= 0.5
            d[a, b] = s
            d[b, a] = s.T
    np.fill_diagonal(d, 0.0)
    return khat, d


def _check_kernel_bound(high: float) -> None:
    """Masked kernel values above 1 + KERNEL_SLACK: not a kernel operator."""
    if high > 1.0 + KERNEL_SLACK:
        raise InconsistencyError(
            f"recovered kernel value {high} exceeds 1; not a Gaussian kernel operator"
        )


class _PairDistances:
    """The distance matrix of recover_kernel_distance, read only at index pairs.

    view[i, j] with index arrays runs the same elementwise operations in the
    same order on just those pairs, so it returns the same bits; no n x n
    array is built.
    """

    def __init__(self, wk: WeightedKernel, mass: np.ndarray):
        self.wk, self.mass, self.shape = wk, mass, wk.w.shape

    def _one_way(self, i, j):
        ok = self.wk.sym[i, j]
        d = np.full(ok.shape, np.nan)
        np.divide(self.wk.w[i, j], self.mass[j], out=d, where=ok)
        np.minimum(d, 1.0, out=d, where=ok)
        np.log(d, out=d, where=ok)
        d *= -self.wk.t
        return np.sqrt(np.maximum(d, 0.0, out=d), out=d)

    def __getitem__(self, pairs):
        i, j = np.broadcast_arrays(*pairs)
        d = self._one_way(i, j) + self._one_way(j, i)
        d *= 0.5
        d[i == j] = 0.0
        return d


# ---------------------------------------------------------------------------
# metric stencil
# ---------------------------------------------------------------------------


def _neighbor_indices(grid_shape, periodic_u: bool, steps: int):
    """Flat node indices of the four axis neighbors at +-steps, with validity."""
    nu, nv = grid_shape
    a, b = np.divmod(np.arange(nu * nv), nv)
    bp = (b + steps) % nv
    bm = (b - steps) % nv
    if periodic_u:
        ap = (a + steps) % nu
        am = (a - steps) % nu
        ok = np.ones(nu * nv, dtype=bool)
    else:
        ap = a + steps
        am = a - steps
        ok = (ap < nu) & (am >= 0)
        ap = np.clip(ap, 0, nu - 1)
        am = np.clip(am, 0, nu - 1)
    up = ap * nv + b
    um = am * nv + b
    vp = a * nv + bp
    vm = a * nv + bm
    return up, um, vp, vm, ok


def _stencil_tensors(dist, grid_shape, spacing, periodic_u, steps=1):
    """-1/2 * mixed second difference of squared distance, from 12 distances per node."""
    hu, hv = spacing[0] * steps, spacing[1] * steps
    up, um, vp, vm, ok = _neighbor_indices(grid_shape, periodic_u, steps)

    def sq(i, j):
        d = dist[i, j]
        return d * d

    def cross(ap, am, bp, bm, ha, hb):
        return -0.5 * (sq(ap, bp) - sq(ap, bm) - sq(am, bp) + sq(am, bm)) / (4 * ha * hb)

    tensors = np.empty((dist.shape[0], 2, 2))
    tensors[:, 0, 0] = cross(up, um, up, um, hu, hu)
    tensors[:, 1, 1] = cross(vp, vm, vp, vm, hv, hv)
    tensors[:, 0, 1] = tensors[:, 1, 0] = cross(up, um, vp, vm, hu, hv)
    valid = ok & np.isfinite(tensors).all(axis=(1, 2))
    return tensors, valid


def metric_field_from_distance(
    dist: np.ndarray,
    grid_shape: tuple[int, int],
    spacing: tuple[float, float],
    periodic_u: bool = True,
    richardson: bool = False,
) -> MetricField:
    """Run the cross stencil at every node where the distances exist.

    dist is the n x n distance matrix, or any object with .shape == (n, n)
    whose dist[i, j] on index arrays returns the distances at those pairs;
    the stencil reads 12 pairs per node (24 with richardson).

    richardson=True combines stencils at spacing h and 2h as (4 g_h - g_2h)/3,
    canceling the O(h^2) term; used when dist is chord distance of an
    embedding rather than geodesic distance.
    """
    tensors, valid = _stencil_tensors(dist, grid_shape, spacing, periodic_u, steps=1)
    if richardson:
        wide, valid2 = _stencil_tensors(dist, grid_shape, spacing, periodic_u, steps=2)
        tensors = (4.0 * tensors - wide) / 3.0
        valid &= valid2
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        raise InsufficientMaskError("no node has a full stencil inside the edge mask")
    picked = tensors[idx]
    eigs = np.linalg.eigvalsh(picked)
    bad = np.flatnonzero(eigs[:, 0] <= 0.0)
    if bad.size:
        raise ConditioningError(
            f"recovered tensor not positive definite at node {int(idx[bad[0]])}",
            eigenvalues=eigs[bad[0]],
        )
    return MetricField(indices=idx, tensors=picked)


def recover_density(
    mass: np.ndarray, metric_field: MetricField, cell_area: float
) -> np.ndarray:
    """Density values at the field's nodes: p_i = m_i / (sqrt(det g_i) dA)."""
    det = np.linalg.det(metric_field.tensors)
    if np.any(det <= 0.0):
        raise ConditioningError("recovered volume form is not positive")
    return mass[metric_field.indices] / (np.sqrt(det) * cell_area)


def report_payload(report: RecoveryReport, externalize_dir=None) -> dict:
    """JSON-ready dict for a recovery report.

    Small vectors (mass, density, metric tensors) are embedded.  The kernel
    and distance matrices are written as binary matrix files when
    externalize_dir is given, embedded for grids up to 256 nodes otherwise,
    and dropped (with a note) beyond that.  NaN entries (pairs outside the
    edge mask) become nulls when embedded.
    """
    payload: dict = {
        "version": __version__,
        "t": report.t,
        "grid_shape": list(report.grid_shape),
        "spacing": list(report.spacing),
        "n": int(report.mass.shape[0]),
        "mass": report.mass.tolist(),
        "metric": {
            "indices": report.metric_field.indices.tolist(),
            "tensors": report.metric_field.tensors.tolist(),
        },
        "density": {
            "indices": report.metric_field.indices.tolist(),
            "values": report.density.tolist(),
        },
        "errors": dict(sorted(report.errors.items())),
    }
    if externalize_dir is not None:
        os.makedirs(externalize_dir, exist_ok=True)
        files = {}
        for name, mat in (("kernel", report.kernel), ("distance", report.distance)):
            fname = f"recovery_{name}.llmx"
            save_matrix(mat, os.path.join(externalize_dir, fname))
            files[name] = fname
        payload["matrix_files"] = files
    elif report.mass.shape[0] <= 256:
        for name, mat in (("kernel", report.kernel), ("distance", report.distance)):
            obj = mat.astype(object)
            obj[~np.isfinite(mat)] = None
            payload[name] = obj.tolist()
    else:
        payload["matrix_note"] = (
            "kernel and distance matrices omitted; pass an externalize "
            "directory to keep them"
        )
    return payload


def run_recovery(op: OperatorMatrix, refine: bool = False) -> RecoveryReport:
    """Full inverse pipeline on one operator."""
    wk = extract_weighted_kernel(op)
    mass = recover_mass(wk, refine=refine)
    # the kernel-value check of recover_kernel_distance, in row blocks
    _check_kernel_bound(max(
        float((wk.w[r] / mass).max(where=wk.mask[r], initial=-np.inf))
        for r in _tiles(wk.n)
    ))
    periodic_u = isinstance(op.measure_metric, TorusMetric)
    richardson = isinstance(op.mode, ExtrinsicKernel)
    metric_field = metric_field_from_distance(
        _PairDistances(wk, mass), op.grid_shape, op.spacing,
        periodic_u=periodic_u, richardson=richardson,
    )
    cell = op.spacing[0] * op.spacing[1]
    density = recover_density(mass, metric_field, cell)
    return RecoveryReport(
        mass=mass,
        wk=wk,
        metric_field=metric_field,
        density=density,
        t=op.t,
        grid_shape=op.grid_shape,
        spacing=op.spacing,
    )
