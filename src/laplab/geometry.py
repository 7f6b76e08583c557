"""Closed-form geometry on two charts: the square torus and the round sphere.

Chart coordinates are angle pairs (u, v), reduced modulo 2*pi once at
construction of a ChartPoint and never again.  Torus metrics have constant
coefficients, so geodesics lift to straight lines in the universal cover and
distance is a minimum of one quadratic form over a few lattice shifts.  Sphere
distances come from the ambient angle formula on the colatitude/longitude
chart; evaluation is refused inside a small guard band around the poles where
the chart degenerates.

Everything here is exact up to rounding: no geometry is discretized in this
module.  Pairwise helpers (the *_sq_* functions) return squared distances for
whole arrays of points at once and are the workhorses of operator assembly;
they write row blocks straight into the output and sum in a fixed order, so
bits do not depend on how a numpy build reduces an einsum (ambient_sq_dist).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameterError, PoleChartError

TWO_PI = 2.0 * math.pi

# Sphere chart guard band, radians.  geodesic_distance refuses colatitudes
# closer than this to {0, pi}, and the sampler never proposes them.
POLE_GUARD = 1e-6

# Row block size for pairwise kernels: caps temporaries at ~blocksize x n.
_BLOCK = 512


@dataclass(frozen=True)
class ChartPoint:
    """A point on a 2*pi-periodic chart. Coordinates are reduced on entry."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u) % TWO_PI)
        object.__setattr__(self, "v", float(self.v) % TWO_PI)

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v], dtype=np.float64)


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusMetric:
    """Constant-coefficient metric E du^2 + 2F du dv + G dv^2 on the torus.

    E, F, G are the classical first-fundamental-form coefficients.  Requires
    E > 0 and EG - F^2 > 0 (positive definiteness).
    """

    E: float
    F: float
    G: float

    def __post_init__(self):
        if not (self.E > 0.0 and self.E * self.G - self.F * self.F > 0.0):
            raise InvalidParameterError(
                f"metric coefficients not positive definite: "
                f"E={self.E}, F={self.F}, G={self.G}"
            )
        if self.anisotropy_ratio() > 256.0:
            raise InvalidParameterError(
                "anisotropy ratio beyond 256 is outside the validated "
                "lattice-shift search range"
            )

    @classmethod
    def flat(cls) -> "TorusMetric":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def anisotropic(cls, a: float) -> "TorusMetric":
        """diag(a^2, a^-2): unit volume form for every a > 0."""
        if a <= 0:
            raise InvalidParameterError("anisotropy factor must be positive")
        return cls(a * a, 0.0, 1.0 / (a * a))

    @classmethod
    def scaled_flat(cls, c: float) -> "TorusMetric":
        """c^2 * (du^2 + dv^2)."""
        if c <= 0:
            raise InvalidParameterError("scale factor must be positive")
        return cls(c * c, 0.0, c * c)

    def matrix(self) -> np.ndarray:
        return np.array([[self.E, self.F], [self.F, self.G]], dtype=np.float64)

    def sqrt_det(self) -> float:
        return math.sqrt(self.E * self.G - self.F * self.F)

    def anisotropy_ratio(self) -> float:
        """Condition number of the coefficient matrix.

        Equals max(E/G, G/E) when F = 0; with coupling the eigenvalue
        ratio is the quantity that actually controls how far the lattice
        search for closed-loop distances has to reach.
        """
        tr = self.E + self.G
        disc = math.sqrt(max(tr * tr / 4.0 - (self.E * self.G - self.F * self.F), 0.0))
        # the small eigenvalue rounds to 0 beyond a ratio of about 1e16
        low = tr / 2.0 - disc
        return (tr / 2.0 + disc) / low if low > 0.0 else math.inf

    def shift_range(self) -> int:
        # Coupled metrics can route loops diagonally; the reach grows with
        # the condition number.  Ladder validated by brute force against a
        # +-8 search over random forms up to ratio 256.  torus_sq_geodesic
        # asks only for coupled metrics; diagonal ones split per axis.
        kappa = self.anisotropy_ratio()
        if kappa <= 4.0:
            return 2
        if kappa <= 16.0:
            return 3
        if kappa <= 64.0:
            return 5
        return 7


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


def _check_sphere_chart(u: float) -> None:
    if not (POLE_GUARD < u < math.pi - POLE_GUARD):
        raise PoleChartError(
            f"colatitude {u!r} is outside the usable chart "
            f"({POLE_GUARD}, pi - {POLE_GUARD})"
        )


# ---------------------------------------------------------------------------
# geodesic distance
# ---------------------------------------------------------------------------


def _wrap_min(coef: float, d: np.ndarray) -> np.ndarray:
    """min over a in {-2 pi, 0, 2 pi} of coef * (d + a)^2, elementwise."""
    best = coef * d * d
    for a in (-TWO_PI, TWO_PI):
        x = d + a
        np.minimum(best, coef * x * x, out=best)
    return best


def _lattice_min(metric: TorusMetric, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Minimum of the coupled form over the square of shifts it can reach."""
    s = metric.shift_range()
    shifts = [k * TWO_PI for k in range(-s, s + 1)]
    best = None
    for a in shifts:
        x = du + a
        for b in shifts:
            y = dv + b
            cand = metric.E * x * x + 2.0 * metric.F * x * y + metric.G * y * y
            best = cand if best is None else np.minimum(best, cand, out=best)
    return best


def torus_sq_geodesic(metric: TorusMetric, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared geodesic distance on the constant-metric torus.

    p: (n, 2), q: (m, 2) chart coordinates.  Returns (n, m).  The distance is
    the minimum of the quadratic form over lattice shifts of the coordinate
    difference.  A coupled metric (F != 0) searches a square of shifts whose
    reach comes from its anisotropy.  A diagonal metric splits per axis:
    E x^2 + G y^2 is smallest where each term is, and for a chart difference
    in (-2 pi, 2 pi) each term's minimum lies at a wrap in {-1, 0, 1}.  So
    it takes the wrap minimum of each axis (6 evaluations of coef * x * x)
    and adds the two; rounded addition is monotone, so for finite
    coordinates the result is bit for bit the minimum over the full square
    of shifts, at any anisotropy.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    out = np.empty((p.shape[0], q.shape[0]), dtype=np.float64)
    for lo in range(0, p.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, p.shape[0])
        du = p[lo:hi, 0, None] - q[None, :, 0]
        dv = p[lo:hi, 1, None] - q[None, :, 1]
        if metric.F == 0.0:
            out[lo:hi] = _wrap_min(metric.E, du) + _wrap_min(metric.G, dv)
        else:
            out[lo:hi] = _lattice_min(metric, du, dv)
    return out


def torus_grid_sq_geodesic(metric: TorusMetric, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """torus_sq_geodesic of a diagonal metric on the grid u x v (u slowest).

    Entry ((a, c), (b, d)) adds the wrap minima of u_a - u_b and v_c - v_d: same bits.
    """
    a = _wrap_min(metric.E, np.subtract.outer(u, u))
    b = _wrap_min(metric.G, np.subtract.outer(v, v))
    return (a[:, None, :, None] + b[None, :, None, :]).reshape(len(u) * len(v), -1)


def sphere_sq_geodesic(radius: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared great-circle distance, (n, m).

    Uses atan2(|a x b|, a.b), which stays accurate for nearly equal and
    nearly antipodal pairs alike.  |a x b|^2 sums as (cx^2 + cy^2) + cz^2.
    """
    a = embed_many(UnitSphere(), p)
    b = embed_many(UnitSphere(), q)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for lo in range(0, a.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, a.shape[0])
        blk, o = a[lo:hi], out[lo:hi]
        o[...] = 0.0
        for i, j in ((1, 2), (2, 0), (0, 1)):
            c = np.multiply.outer(blk[:, i], b[:, j])
            c -= np.multiply.outer(blk[:, j], b[:, i])
            c *= c
            o += c
        np.sqrt(o, out=o)
        np.arctan2(o, blk @ b.T, out=o)
        o *= radius
        o *= o
    return out


def metric_sq_geodesic(metric: Metric, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared geodesic distance for either chart."""
    if isinstance(metric, TorusMetric):
        return torus_sq_geodesic(metric, p, q)
    return sphere_sq_geodesic(metric.radius, p, q)


def geodesic_distance(metric: Metric, x: ChartPoint, y: ChartPoint) -> float:
    """Geodesic distance between two chart points."""
    if isinstance(metric, SphereMetric):
        _check_sphere_chart(x.u)
        _check_sphere_chart(y.u)
    d2 = metric_sq_geodesic(metric, x.as_array()[None, :], y.as_array()[None, :])
    return math.sqrt(float(d2[0, 0]))


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordTorus:
    """(u, v) -> (cos u, sin u, cos v, sin v) in R^4. Induced metric is flat."""

    ambient_dim: int = 4


@dataclass(frozen=True)
class DonutTorus:
    """Surface of revolution in R^3; u runs around the tube, v around the axis."""

    major: float
    minor: float
    ambient_dim: int = 3

    def __post_init__(self):
        if not (self.major > self.minor > 0.0):
            raise InvalidParameterError(
                f"need major > minor > 0, got major={self.major}, minor={self.minor}"
            )


@dataclass(frozen=True)
class UnitSphere:
    """Colatitude/longitude chart onto the unit sphere in R^3."""

    ambient_dim: int = 3


Embedding = Union[CliffordTorus, DonutTorus, UnitSphere]


def embed_many(embedding: Embedding, p: np.ndarray) -> np.ndarray:
    """Map (n, 2) chart coordinates to (n, ambient_dim) ambient coordinates."""
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


def ambient_sq_dist(embedding: Embedding, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise squared chord distance of embedded points, (n, m).

    Computed from coordinate differences directly (no norm expansion), so
    nearby pairs lose no precision to cancellation.  Squares sum as
    (d0^2 + d2^2) + (d1^2 + d3^2) in R^4 and (d0^2 + d2^2) + d1^2 in R^3, the
    order numpy 2.4's einsum took on x86-64, now fixed for any numpy or CPU.
    """
    a = embed_many(embedding, p)
    b = embed_many(embedding, q)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for lo in range(0, a.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, a.shape[0])
        blk, o = a[lo:hi], out[lo:hi]
        np.add(_diff_sq(blk, b, 0), _diff_sq(blk, b, 2), out=o)
        rest = _diff_sq(blk, b, 1)
        o += rest if a.shape[1] == 3 else np.add(rest, _diff_sq(blk, b, 3), out=rest)
    return out


def _diff_sq(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Squared difference of coordinate k, pairwise."""
    d = np.subtract.outer(a[:, k], b[:, k])
    d *= d
    return d


def ambient_distance(embedding: Embedding, x: ChartPoint, y: ChartPoint) -> float:
    """Chord distance between the embedded images of two chart points."""
    d2 = ambient_sq_dist(embedding, x.as_array()[None, :], y.as_array()[None, :])
    return math.sqrt(float(d2[0, 0]))


def induced_metric(embedding: Embedding, x: ChartPoint, h: float = 1e-4) -> np.ndarray:
    """First fundamental form J^T J from a central-difference Jacobian.

    h is the chart step of the central differences; must satisfy 0 < h <= 1e-3.
    """
    if not (0.0 < h <= 1e-3):
        raise InvalidParameterError(f"difference step must be in (0, 1e-3], got {h}")
    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        plus = embed_many(embedding, np.array([[x.u + du, x.v + dv]]))[0]
        minus = embed_many(embedding, np.array([[x.u - du, x.v - dv]]))[0]
        cols.append((plus - minus) / (2.0 * h))
    jac = np.column_stack(cols)
    return jac.T @ jac
