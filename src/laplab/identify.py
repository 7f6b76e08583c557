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

No copy of W and no edge matrix is made: extraction checks the operator in
one pass over 64-row blocks of its entries, and every later reader scales
the entries it needs by the same formula (WeightedKernel.w) and tests them
against EDGE_THRESHOLD where it reads them.  The stencil reads distances
only at O(n) neighbor pairs, so run_recovery computes them only there.  The
n x n kernel and distance matrices come 64 rows at a time from _kernel_rows
and _distance_rows: an externalized report streams them into its .llmx
files and never holds either whole, while an embedded report and library
reads of RecoveryReport.kernel / .distance fill whole arrays from the same
blocks.  Index pairs and row blocks both go through one map from W to
one-way distance, _one_way, so the stencil, the arrays and the files share
its bits.  The distance stream computes its upper row strips by dense
assembly's thread rule, operators._in_order, so its bits do not depend on
the thread count.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__
from .discretization import QuadratureRule
from .errors import (
    ConditioningError,
    InconsistencyError,
    InsufficientMaskError,
    MalformedOperatorError,
    UnrecoverableMassError,
)
from .geometry import Metric, TorusMetric
from .operators import OperatorMatrix, _in_order, save_matrix

# Off-diagonal kernel weights at or below this threshold are treated as
# absent edges: below it, log-inversion noise swamps the signal.
EDGE_THRESHOLD = 1e-12

# Recovered kernel values may exceed 1 by at most this much before the
# operator is declared inconsistent (beyond rounding of a true kernel).
KERNEL_SLACK = 1e-8

_ROW_SUM_TOL = 1e-10
_NEGATIVE_TOL = 1e-14

# Rows per block of the passes over the operator, and edge of the square
# tiles that the distance stream walks, so that a tile and its mirror stay in
# cache together.
_TILE = 64


def _tiles(n: int) -> list[slice]:
    return [slice(a, min(a + _TILE, n)) for a in range(0, n, _TILE)]


@dataclass(frozen=True, eq=False)
class WeightedKernel:
    """Off-diagonal kernel weights W_ij = K_ij m_j, read off the operator.

    entries is the operator's own matrix, never copied and never written;
    w(*index) returns W at any index of it, and an entry is usable (an
    edge) where that W > EDGE_THRESHOLD.  The diagonal has no meaningful
    W (W_ii is unknown by construction), and every reader overwrites or
    skips it.  No edge matrix is stored: mask builds the n x n boolean
    array of usable entries, False on the diagonal, on each read.  colmax
    holds each column's largest usable W, -inf where a column has no edge.
    """

    entries: np.ndarray
    t: float
    colmax: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def w(self, *index) -> np.ndarray:
        """W at entries[index]: the entries times -t^2, with the tiny negative
        weights that rounding leaves (extraction refuses larger ones) set to 0."""
        x = self.entries[index] * (-self.t**2)
        x[x < 0.0] = 0.0
        return x

    @property
    def mask(self) -> np.ndarray:
        mask = np.empty((self.n, self.n), dtype=bool)
        for r in _tiles(self.n):
            mask[r] = self.w(r) > EDGE_THRESHOLD
        np.fill_diagonal(mask, False)
        return mask


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
    report_payload streams them into .llmx files without reading either.
    rule is the operator's quadrature rule, whose grid the report describes.
    """

    mass: np.ndarray
    wk: WeightedKernel
    metric_field: MetricField
    density: np.ndarray
    t: float
    rule: QuadratureRule
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
    no row is entirely disconnected.  One pass over 64-row blocks of the
    entries gathers what every check needs and the column maxima; the
    checks then raise in that order, on values of the whole operator.  No
    edge mask is written: readers test W where they read it.
    """
    e, n = op.entries, len(op.entries)
    sums, ones = np.empty(n), np.ones(n)
    colmax = np.full(n, -np.inf)
    low, live = np.inf, True
    for r in _tiles(n):
        # +inf and -inf in one row sum to NaN, which the finiteness check reports
        with np.errstate(invalid="ignore"):
            sums[r] = e[r] @ ones
        x = e[r] * (-op.t**2)
        # the NaN diagonal fails every comparison below, and fmin skips it
        np.fill_diagonal(x[:, r], np.nan)
        low = np.fmin(low, np.fmin.reduce(x, axis=None))
        live = live and bool((x > 0.0).any(axis=1).all())
        np.fmax(colmax, np.fmax.reduce(x, axis=0), out=colmax)
    worst = float(np.max(np.abs(sums)))
    # a NaN or infinite entry makes its row sum non-finite
    if not np.isfinite(worst):
        raise MalformedOperatorError("operator has non-finite entries")
    if worst > _ROW_SUM_TOL:
        raise MalformedOperatorError(
            f"row sums reach {worst:.3e}; operator does not annihilate constants"
        )
    if low < -_NEGATIVE_TOL:
        raise MalformedOperatorError(
            f"positive off-diagonal operator entry (kernel weight {float(low):.3e} < 0)"
        )
    if not live:
        raise MalformedOperatorError("a node has an all-zero kernel row")
    # a column maximum above the threshold is an edge's W; any other column has no edge
    colmax[~(colmax > EDGE_THRESHOLD)] = -np.inf
    return WeightedKernel(entries=e, t=op.t, colmax=colmax)


def recover_mass(wk: WeightedKernel, refine: bool = False) -> np.ndarray:
    """Node masses m_j = p(x_j) w_j up to normalization sum(m) = 1.

    Propagates log-mass differences log(W_ij / W_ji) over a breadth-first
    spanning tree of the edges usable both ways, visiting neighbors in
    ascending order.  The search keeps the unseen nodes in an ascending
    array, tests a popped node's row against them and its column only at
    the row's hits, and stops once every node is seen.  With refine=True the
    tree solution is replaced by the least-squares fit over all such edges
    (normal equations on the edge graph; O(n^3) dense solve).
    """
    n = wk.n
    logm = np.full(n, np.nan)
    logm[0] = 0.0
    unseen = np.arange(1, n)
    queue = deque([0])
    while queue and unseen.size:
        i = queue.popleft()
        row = wk.w(i, unseen)
        hits = np.flatnonzero(row > EDGE_THRESHOLD)
        col = wk.w(unseen[hits], i)
        both = col > EDGE_THRESHOLD
        hits = hits[both]
        if hits.size == 0:
            continue
        nbrs = unseen[hits]
        logm[nbrs] = logm[i] + (np.log(row[hits]) - np.log(col[both]))
        unseen = np.delete(unseen, hits)
        queue.extend(nbrs.tolist())
    if unseen.size:
        raise UnrecoverableMassError(
            f"kernel graph is disconnected; {unseen.size} nodes unreachable from node 0"
        )

    if refine:
        sym = wk.mask
        sym &= sym.T  # numpy reads an operand that overlaps out as a copy
        # log W on symmetric edges, 0 elsewhere (log 1), a row block at a time
        logw = np.empty((n, n))
        for r in _tiles(n):
            logw[r] = np.log(np.where(sym[r], wk.w(r), 1.0))
        ratio = logw - logw.T
        del logw
        rhs = ratio.sum(axis=0)
        del ratio
        # the edge-graph Laplacian, built in place: -sym, degrees on the diagonal
        lap = sym.astype(np.float64)
        np.negative(lap, out=lap)
        np.fill_diagonal(lap, sym.sum(axis=1))
        # gauge: the all-ones direction is null, pin it with a rank-one shift
        lap += 1.0 / n
        logm = np.linalg.solve(lap, rhs)

    m = np.exp(logm - logm.max())
    return m / m.sum()


def _one_way(w: np.ndarray, m, sym: np.ndarray, t: float) -> np.ndarray:
    """One-way distances f(w / m) = sqrt(max(-t log min(w / m, 1), 0)) where
    sym holds, NaN elsewhere; w is divided and clamped in place."""
    w /= m
    np.minimum(w, 1.0, out=w, where=sym)
    d = np.full(w.shape, np.nan)
    np.log(w, out=d, where=sym)
    d *= -t
    return np.sqrt(np.maximum(d, 0.0, out=d), out=d)


def _check_kernel_bound(wk: WeightedKernel, mass: np.ndarray) -> None:
    """Raise if an edge's W_ij / m_j exceeds 1 + KERNEL_SLACK (not a kernel operator).

    Rounded division by a positive m_j is monotone, so colmax_j / m_j is the
    largest W_ij / m_j over the edges of column j, bit for bit; O(n) work.
    """
    high = float(np.max(wk.colmax / mass))
    if high > 1.0 + KERNEL_SLACK:
        raise InconsistencyError(
            f"recovered kernel value {high} exceeds 1; not a Gaussian kernel operator"
        )


def _kernel_rows(wk: WeightedKernel, mass: np.ndarray):
    """Row blocks (r, K[r]) of the kernel matrix, 64 rows at a time: W[r] / m,
    clamped to 1 on edges, diagonal 1.  Values above 1 + KERNEL_SLACK are
    not checked here; _check_kernel_bound checks them."""
    for r in _tiles(wk.n):
        k = wk.w(r)
        edge = k > EDGE_THRESHOLD
        k /= mass
        np.minimum(k, 1.0, out=k, where=edge)
        np.fill_diagonal(k[:, r], 1.0)
        yield r, k


def _distance_rows(wk: WeightedKernel, mass: np.ndarray):
    """Row blocks (r, D[r]) of the distance matrix, 64 rows at a time.

    D[r] = (f(K[r, :]) + f(K[:, r]).T) / 2, zero on the diagonal.  The upper
    strip of a block, D[r, r.start:], gathers the row strip of W from its
    diagonal rightwards and the column strip below it, as it lies (n x 64),
    tests both against the threshold once for the pairs that are edges both
    ways, maps each strip there and adds the column's distances transposed.
    D is symmetric, so the tiles left of the diagonal are the mirrors of
    tiles that earlier strips cut: each is kept until its row block comes (at
    most n^2 / 4 entries at once), and every one-way distance is mapped once.

    Strips are independent and run as the tasks of operators._in_order,
    closed as soon as the stream is.  Kernel values above 1 are not checked
    here; _check_kernel_bound checks them.
    """
    n, tiles, kept = wk.n, _tiles(wk.n), {}

    def strip(a: int):
        r = tiles[a]
        right = slice(r.start, n)
        row, col = wk.w(r, right), wk.w(right, r)
        sym = row > EDGE_THRESHOLD
        sym &= col.T > EDGE_THRESHOLD
        up = _one_way(row, mass[right], sym, wk.t)
        del row
        up += _one_way(col, mass[r], sym.T, wk.t).T
        up *= 0.5
        return up, {(b, a): up[:, c.start - r.start:c.stop - r.start].T.copy()
                    for b, c in enumerate(tiles[a + 1:], a + 1)}

    with contextlib.closing(_in_order(strip, len(tiles), n)) as strips:
        for a, r in enumerate(tiles):
            up, mirrors = next(strips)
            kept.update(mirrors)
            d = np.empty((r.stop - r.start, n))
            for b, c in enumerate(tiles[:a]):
                d[:, c] = kept.pop((a, b))
            d[:, r.start:] = up
            del up
            np.fill_diagonal(d[:, r], 0.0)
            yield r, d


def recover_kernel_distance(
    wk: WeightedKernel, mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values and pairwise distances implied by W and the masses.

    K_ij = W_ij / m_j on edges, clamped into (0, 1], diagonal set to 1.
    Distances d_ij = sqrt(-t log K_ij) where both directions are edges,
    symmetrized by averaging; NaN elsewhere, zero diagonal.  Kernel values
    on edges above 1 + 1e-8 mean the matrix was not a kernel operator and
    raise an inconsistency error.
    """
    _check_kernel_bound(wk, mass)
    khat, d = np.empty((wk.n, wk.n)), np.empty((wk.n, wk.n))
    for r, kr in _kernel_rows(wk, mass):
        khat[r] = kr
    for r, dr in _distance_rows(wk, mass):
        d[r] = dr
    return khat, d


class _PairDistances:
    """The distance matrix of recover_kernel_distance, read only at index pairs.

    view[i, j] with index arrays maps just those pairs, both ways, and
    averages them as the dense matrix does, so it returns the same bits; no
    n x n array is built.
    """

    def __init__(self, wk: WeightedKernel, mass: np.ndarray):
        self.wk, self.mass, self.shape = wk, mass, (wk.n, wk.n)

    def __getitem__(self, pairs):
        i, j = np.broadcast_arrays(*pairs)
        wk, mass = self.wk, self.mass
        wij, wji = wk.w(i, j), wk.w(j, i)
        sym = (wij > EDGE_THRESHOLD) & (wji > EDGE_THRESHOLD)
        d = _one_way(wij, mass[j], sym, wk.t) + _one_way(wji, mass[i], sym, wk.t)
        d *= 0.5
        d[i == j] = 0.0
        return d


# ---------------------------------------------------------------------------
# metric stencil
# ---------------------------------------------------------------------------


def _neighbor_indices(rule: QuadratureRule, steps: int):
    """Flat node indices of the four axis neighbors at +-steps, with validity;
    v wraps on both charts, u on the torus chart only."""
    (nu, nv), grid = rule.grid_shape, np.arange(rule.n).reshape(rule.grid_shape)
    up, um = (np.roll(grid, s, axis=0).ravel() for s in (-steps, steps))
    vp, vm = (np.roll(grid, s, axis=1).ravel() for s in (-steps, steps))
    a = np.arange(nu)
    ok = ((steps <= a) & (a < nu - steps)) | isinstance(rule.metric, TorusMetric)
    return up, um, vp, vm, np.repeat(ok, nv)


def _stencil_tensors(dist, rule: QuadratureRule, steps=1):
    """-1/2 * mixed second difference of squared distance, from 12 distances per node."""
    hu, hv = rule.spacing[0] * steps, rule.spacing[1] * steps
    up, um, vp, vm, ok = _neighbor_indices(rule, steps)

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
    dist: np.ndarray, rule: QuadratureRule, richardson: bool = False
) -> MetricField:
    """Run the cross stencil at every node of rule's grid where the distances exist.

    dist is the n x n distance matrix, or any object with .shape == (n, n)
    whose dist[i, j] on index arrays returns the distances at those pairs;
    the stencil reads 12 pairs per node (24 with richardson).  u wraps iff
    rule.metric is a torus metric.

    richardson=True combines stencils at spacing h and 2h as (4 g_h - g_2h)/3,
    canceling the O(h^2) term; used when dist is chord distance of an
    embedding rather than geodesic distance.
    """
    tensors, valid = _stencil_tensors(dist, rule, steps=1)
    if richardson:
        wide, valid2 = _stencil_tensors(dist, rule, steps=2)
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
    g = metric_field.tensors
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    if np.any(det <= 0.0):
        raise ConditioningError("recovered volume form is not positive")
    return mass[metric_field.indices] / (np.sqrt(det) * cell_area)


def report_payload(report: RecoveryReport, externalize_dir=None) -> dict:
    """Dict for a recovery report, for verify.write_json.

    Small vectors (mass, density, metric tensors and their node indices) go
    in as the report's own arrays.  The kernel and distance matrices are
    streamed, 64 rows at a time, into binary matrix files when
    externalize_dir is given (neither is ever held whole), embedded as arrays
    for grids up to 256 nodes otherwise, and dropped (with a note) beyond
    that.  write_json writes the NaN entries of an embedded matrix (pairs
    outside the edge mask) as null.
    """
    indices = report.metric_field.indices
    payload: dict = {
        "version": __version__,
        "t": report.t,
        "grid_shape": list(report.rule.grid_shape),
        "spacing": list(report.rule.spacing),
        "n": int(report.mass.shape[0]),
        "mass": report.mass,
        "metric": {"indices": indices, "tensors": report.metric_field.tensors},
        "density": {"indices": indices, "values": report.density},
        "errors": dict(sorted(report.errors.items())),
    }
    if externalize_dir is not None:
        os.makedirs(externalize_dir, exist_ok=True)
        wk, mass, n = report.wk, report.mass, report.wk.n
        files = {}
        for name, rows in (("kernel", _kernel_rows), ("distance", _distance_rows)):
            fname = f"recovery_{name}.llmx"
            # a write that fails closes the stream, which waits for its threads
            with contextlib.closing(rows(wk, mass)) as blocks:
                save_matrix((b for _, b in blocks), os.path.join(externalize_dir, fname), (n, n))
            files[name] = fname
        payload["matrix_files"] = files
    elif report.mass.shape[0] <= 256:
        payload["kernel"], payload["distance"] = report.kernel, report.distance
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
    _check_kernel_bound(wk, mass)
    richardson = not isinstance(op.space, Metric)
    metric_field = metric_field_from_distance(_PairDistances(wk, mass), op.rule, richardson)
    du, dv = op.rule.spacing
    density = recover_density(mass, metric_field, du * dv)
    return RecoveryReport(
        mass=mass, wk=wk, metric_field=metric_field, density=density, t=op.t, rule=op.rule)
