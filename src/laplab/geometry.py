"""Closed-form geometry on two charts: the square torus and the round sphere.

Chart coordinates are angle pairs (u, v), and a point set is an (n, 2)
float64 array of them.  Torus metrics are diagonal with constant
coefficients, so geodesics lift to straight lines in the universal cover and
distance splits per axis: each axis's term is evaluated once, at the shorter
way round its circle.  Sphere distances come from the ambient angle formula
on the colatitude/longitude chart, which degenerates at the poles; the grid
and the sampler keep their points out of a small guard band around them.

Everything here is exact up to rounding: no geometry is discretized in this
module.  Each squared distance has one row-block kernel.  sq_dist_rows and
torus_grid_rows make what it shares (embeddings, column copies, per-axis
tables) once and hand operator assembly a function of a row range, which
fills 16 rows at a time with scratch of its own, so that ranges can run on
separate threads; the pairwise *_sq_* functions run one range over a whole
table.  Kernels sum in a fixed order with elementwise numpy operations and
call no BLAS, so bits depend neither on the range, nor on the block size,
nor on numpy's reductions, nor on the BLAS kernel the CPU selects.
A space is a Metric (geodesic distance) or an Embedding (chord distance);
sq_dist and sq_dist_rows take either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * math.pi

# Sphere chart guard band, radians.  The chart degenerates at colatitudes
# 0 and pi; grid nodes and sampled points keep at least this far from them.
POLE_GUARD = 1e-6

# Rows per block: 16 rows of 4096 float64 are 0.5 MiB, so a caller can
# finish each block while it sits in L2.
_ROWS = 16


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------


def _square(x: float, name: str) -> float:
    """x * x, refused unless x > 0 and x^2 and 1/x^2 are finite and positive."""
    sq = x * x
    if not (x > 0.0 and 0.0 < sq < math.inf and 1.0 / sq < math.inf):
        raise InvalidParameterError(
            f"{name} must be positive with its square and inverse square finite "
            f"and positive, got {x}"
        )
    return sq


@dataclass(frozen=True)
class TorusMetric:
    """Constant diagonal metric E du^2 + G dv^2 on the torus.

    E, F, G are the classical first-fundamental-form coefficients; F, the
    coupling, must be 0.  It is kept so that the .llop parameter block and the
    S5 reference key still hold (E, F, G).  Requires E > 0 and G > 0, EG and
    its inverse finite in float64, and an anisotropy ratio of at most 256.
    """

    E: float
    F: float
    G: float

    def __post_init__(self):
        if self.F != 0.0:
            raise InvalidParameterError(
                f"coupled torus metrics are not supported: F must be 0, got F={self.F}")
        det = self.E * self.G
        # an infinite or NaN determinant is a scale fault, whatever the signs
        if det < math.inf and not (self.E > 0.0 and self.G > 0.0):
            raise InvalidParameterError(
                f"metric coefficients not positive definite: E={self.E}, G={self.G}"
            )
        if not (0.0 < det < math.inf and 1.0 / det < math.inf):
            raise InvalidParameterError(
                "metric scale out of float64 range: EG and its inverse "
                f"must be finite, got E={self.E}, G={self.G}"
            )
        if self.anisotropy_ratio() > 256.0:
            raise InvalidParameterError(
                "anisotropy ratio beyond 256 is outside the validated range, "
                f"got E={self.E}, G={self.G}")

    @classmethod
    def flat(cls) -> "TorusMetric":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def anisotropic(cls, a: float) -> "TorusMetric":
        """diag(a^2, a^-2): unit volume form for every a > 0."""
        sq = _square(a, "anisotropy factor")
        return cls(sq, 0.0, 1.0 / sq)

    @classmethod
    def scaled_flat(cls, c: float) -> "TorusMetric":
        """c^2 * (du^2 + dv^2)."""
        sq = _square(c, "scale factor")
        return cls(sq, 0.0, sq)

    def matrix(self) -> np.ndarray:
        return np.array([[self.E, self.F], [self.F, self.G]], dtype=np.float64)

    def sqrt_det(self) -> float:
        return math.sqrt(self.E * self.G)

    def anisotropy_ratio(self) -> float:
        """Condition number of the coefficient matrix, max(E/G, G/E)."""
        return max(self.E / self.G, self.G / self.E)


@dataclass(frozen=True)
class SphereMetric:
    """Round sphere of a given radius in the colatitude/longitude chart."""

    radius: float

    def __post_init__(self):
        r = self.radius
        area = 4.0 * math.pi * (r * r)
        if not (r > 0.0 and 0.0 < area < math.inf and 1.0 / area < math.inf):
            raise InvalidParameterError(
                "sphere radius needs the area 4 pi r^2 and its inverse finite and "
                f"positive (about 2.1e-155 < r < 3.8e153), got {r}")


Metric = Union[TorusMetric, SphereMetric]


# ---------------------------------------------------------------------------
# geodesic distance
# ---------------------------------------------------------------------------


def _blocks(start: int, stop: int, m: int, k: int):
    """(lo, hi, scratch) per _ROWS-row block of rows start:stop; scratch is k (hi - lo, m)
    arrays of this range's own."""
    buf = np.empty((k, min(_ROWS, stop - start), m))
    for lo in range(start, stop, _ROWS):
        yield lo, min(lo + _ROWS, stop), buf[:, :stop - lo]


def _wrap_min(coef: float, d: np.ndarray, out, y) -> np.ndarray:
    """out = min over a in {-2 pi, 0, 2 pi} of coef * (d + a)^2, as (x * coef) * x
    at the one x that reaches it; d is overwritten and y is scratch.

    x = min(|d|, 2 pi - |d|), the signed minimum.  Rounding is symmetric, so
    fl(d - 2 pi) = -fl(2 pi - d), and (x * coef) * x is even in x and rounds
    monotonically in |x|; 2 pi - |d| is negative only where |d| > 2 pi, and
    then no longer than |d|.  So the bits are those of the three evaluations for
    every d, infinities and NaN included.
    """
    x = np.abs(d, out=d)
    np.minimum(x, np.subtract(TWO_PI, x, out=y), out=x)
    np.multiply(x, coef, out=out)
    out *= x
    return out


def _keep_apart(o: np.ndarray, diff) -> None:
    """Zero squares in o of distinct points (separation below about 1e-162) become
    5e-324, the smallest positive float64: diff(i, j) gives the chart differences
    (du, dv) at entries (i, j), and only entries where both wrap to 0 stay 0.
    Costs a compare and a scan of o; callers whose blocks seldom hold a zero
    check o.all() first."""
    zero = np.flatnonzero(o == 0.0)
    if zero.size:
        i, j = np.divmod(zero, o.shape[1])
        du, dv = diff(i, j)
        apart = (np.remainder(du, TWO_PI) != 0.0) | (np.remainder(dv, TWO_PI) != 0.0)
        o[i[apart], j[apart]] = 5e-324


def _torus_rows(metric: TorusMetric, p: np.ndarray, q: np.ndarray, out: np.ndarray):
    qu, qv = np.ascontiguousarray(q[:, 0]), np.ascontiguousarray(q[:, 1])

    def rows(start: int, stop: int):
        for lo, hi, (du, dv, x) in _blocks(start, stop, len(q), 3):
            o = out[lo:hi]
            np.subtract(p[lo:hi, 0, None], qu, out=du)
            np.subtract(p[lo:hi, 1, None], qv, out=dv)
            _wrap_min(metric.E, du, o, x)
            o += _wrap_min(metric.G, dv, du, x)
            # a Monte-Carlo row almost never holds a zero: one pass to rule it out
            if not o.all():
                _keep_apart(o, lambda i, j: (p[lo + i, 0] - qu[j], p[lo + i, 1] - qv[j]))
            yield lo, hi

    return rows


def torus_grid_rows(metric: TorusMetric, u: np.ndarray, v: np.ndarray, out: np.ndarray):
    """sq_dist_rows of a torus metric on the grid u x v (u slowest): entry
    ((a, c), (b, d)) adds the wrap minima of u_a - u_b and v_c - v_d, same bits.
    The two per-axis tables are made here, once, for every range."""
    nu, nv = len(u), len(v)
    a = _wrap_min(metric.E, np.subtract.outer(u, u), *np.empty((2, nu, nu)))
    b = _wrap_min(metric.G, np.subtract.outer(v, v), *np.empty((2, nv, nv)))

    def rows(start: int, stop: int):
        for lo, hi, _ in _blocks(start, stop, 0, 0):
            r = np.arange(lo, hi)
            np.add(a[r // nv, :, None], b[r % nv, None, :],
                   out=out[lo:hi].reshape(-1, nu, nv))
            _keep_apart(out[lo:hi], lambda i, j: (u[(lo + i) // nv] - u[j // nv],
                                                  v[(lo + i) % nv] - v[j % nv]))
            yield lo, hi

    return rows


def _sphere_rows(radius: float, p: np.ndarray, q: np.ndarray, out: np.ndarray):
    a = embed_many(UnitSphere(), p)
    cols = embed_many(UnitSphere(), q).T.copy()

    def rows(start: int, stop: int):
        for lo, hi, (c, x, dot) in _blocks(start, stop, cols.shape[1], 3):
            blk, o = a[lo:hi], out[lo:hi]
            np.multiply(blk[:, 0, None], cols[0], out=dot)
            dot += np.multiply(blk[:, 1, None], cols[1], out=x)
            dot += np.multiply(blk[:, 2, None], cols[2], out=x)
            o[...] = 0.0
            for i, j in ((1, 2), (2, 0), (0, 1)):
                np.multiply(blk[:, i, None], cols[j], out=c)
                c -= np.multiply(blk[:, j, None], cols[i], out=x)
                o += np.square(c, out=c)
            np.sqrt(o, out=o)
            np.arctan2(o, dot, out=o)
            o *= radius
            o *= o
            yield lo, hi

    return rows


def sq_dist_rows(space: Space, p: np.ndarray, q: np.ndarray, out):
    """Squared geodesic (metric) or chord (embedding) distances of float64 p, q into
    out, by row range: returns rows(start, stop), a generator that yields (lo, hi)
    per _ROWS-row block of out[start:stop] once out[lo:hi] holds them.

    What every range reads (embeddings, column copies) is made here, once, and
    only read after; each range allocates its own scratch.  So any ranges may
    run at once on separate threads, and the bits depend on neither the ranges
    nor the blocks."""
    if isinstance(space, TorusMetric):
        return _torus_rows(space, p, q, out)
    if isinstance(space, SphereMetric):
        return _sphere_rows(space.radius, p, q, out)
    return _ambient_rows(space, p, q, out)


def _table(rows, space, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The whole (n, m) table of a row-range kernel, as one range."""
    p, q = (np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in (p, q))
    out = np.empty((len(p), len(q)))
    for _ in rows(space, p, q, out)(0, len(p)):
        pass
    return out


def torus_sq_geodesic(metric: TorusMetric, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared geodesic distance on the constant diagonal-metric torus.

    p: (n, 2), q: (m, 2) chart coordinates.  Returns (n, m).  The distance is
    the minimum of E x^2 + G y^2 over lattice shifts (x, y) of the coordinate
    difference, reached where each term is smallest; for a chart difference in
    (-2 pi, 2 pi) each term's minimum lies at a wrap in {-1, 0, 1}.  So it
    evaluates coef * x * x once per axis, at x = min(|d|, 2 pi - |d|), which
    gives the bits of the minimum over those three wraps for any d, and adds
    the two; rounded addition is monotone, so for finite coordinates the
    result is bit for bit the minimum over the full square of shifts, at any
    anisotropy.  Where that minimum underflows to 0 for distinct points, the
    entry is the smallest positive float64 instead.
    """
    return _table(_torus_rows, metric, p, q)


def sphere_sq_geodesic(radius: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared great-circle distance, (n, m).

    Uses atan2(|a x b|, a.b), which stays accurate for nearly equal and
    nearly antipodal pairs alike.  |a x b|^2 sums as (cx^2 + cy^2) + cz^2 and
    a.b as (a0 b0 + a1 b1) + a2 b2.
    """
    return _table(_sphere_rows, radius, p, q)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordTorus:
    """(u, v) -> (cos u, sin u, cos v, sin v) in R^4. Induced metric is flat."""


@dataclass(frozen=True)
class DonutTorus:
    """Surface of revolution in R^3; u runs around the tube, v around the axis."""

    major: float
    minor: float

    def __post_init__(self):
        # chords are at most 2 (major + minor) long; keep their squares finite
        reach = 2.0 * (self.major + self.minor)
        if not (self.major > self.minor > 0.0 and reach * reach < math.inf):
            raise InvalidParameterError(
                "need major > minor > 0 and major + minor below about 6.7e153, "
                f"got major={self.major}, minor={self.minor}"
            )


@dataclass(frozen=True)
class UnitSphere:
    """Colatitude/longitude chart onto the unit sphere in R^3."""


Embedding = Union[CliffordTorus, DonutTorus, UnitSphere]

# What a Gaussian kernel measures distance in: a metric (geodesic distance,
# the intrinsic operator) or an embedding (chord distance, the extrinsic one).
Space = Union[Metric, Embedding]


def embed_many(embedding: Embedding, p: np.ndarray) -> np.ndarray:
    """Map (n, 2) chart coordinates to (n, 4) points of R^4 (Clifford) or (n, 3) of R^3."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    u, v = p[:, 0], p[:, 1]
    if isinstance(embedding, CliffordTorus):
        return np.column_stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)])
    if isinstance(embedding, DonutTorus):
        ring = embedding.major + embedding.minor * np.cos(u)
        return np.column_stack(
            [ring * np.cos(v), ring * np.sin(v), embedding.minor * np.sin(u)]
        )
    su = np.sin(u)
    return np.column_stack([su * np.cos(v), su * np.sin(v), np.cos(u)])


def _ambient_rows(embedding: Embedding, p: np.ndarray, q: np.ndarray, out: np.ndarray):
    a = embed_many(embedding, p)
    cols = embed_many(embedding, q).T.copy()

    def rows(start: int, stop: int):
        for lo, hi, (x, y) in _blocks(start, stop, cols.shape[1], 2):
            blk, o = a[lo:hi], out[lo:hi]
            np.add(_diff_sq(blk, cols, 0, o), _diff_sq(blk, cols, 2, x), out=o)
            rest = _diff_sq(blk, cols, 1, x)
            o += rest if len(cols) == 3 else np.add(rest, _diff_sq(blk, cols, 3, y), out=rest)
            yield lo, hi

    return rows


def _diff_sq(a: np.ndarray, cols: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Squared difference of coordinate k, pairwise, into out."""
    return np.square(np.subtract(a[:, k, None], cols[k], out=out), out=out)


def ambient_sq_dist(embedding: Embedding, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared chord distance of embedded points, (n, m).

    Computed from coordinate differences directly (no norm expansion), so
    nearby pairs lose no precision to cancellation.  Squares sum as
    (d0^2 + d2^2) + (d1^2 + d3^2) in R^4 and (d0^2 + d2^2) + d1^2 in R^3, the
    order numpy 2.4's einsum took on x86-64, now fixed for any numpy or CPU.
    """
    return _table(_ambient_rows, embedding, p, q)


def sq_dist(space: Space, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared geodesic (metric) or chord (embedding) distance, (n, m)."""
    if isinstance(space, TorusMetric):
        return torus_sq_geodesic(space, p, q)
    if isinstance(space, SphereMetric):
        return sphere_sq_geodesic(space.radius, p, q)
    return ambient_sq_dist(space, p, q)

