"""Grids, quadrature weights, probability densities, and point sampling.

The torus gets the periodic trapezoid rule on a uniform N x N grid, which is
spectrally accurate for smooth periodic integrands.  The sphere gets a uniform
latitude/longitude grid with sin-weighted trapezoid weights; the pole rows
carry zero weight and are dropped.  Raw sphere weights sum to the area only to
O(N^-2), so they are rescaled once by a constant factor to make the total
measure exact; integration of non-constant functions remains O(N^-2) and is
documented as such.

Densities are positive functions on the chart normalized against a quadrature
rule so that sum(p * w) = 1.  Sampling draws from p d(mu_g) by rejection:
propose uniformly on the chart, accept with probability proportional to
p * sqrt(det g), with an analytic envelope.  The uniform stream comes from the
package's own integer-state generator, so a seed pins the sample set exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidDensityError, InvalidParameterError, LapLabError
from .geometry import (
    TWO_PI,
    POLE_GUARD,
    Metric,
    SphereMetric,
    TorusMetric,
)
from .rng import Xorshift64Star


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for integration against the Riemannian measure.

    nodes are (n, 2) chart coordinates in row-major grid order (the u index
    varies slowest); weights are (n,) and strictly positive.  grid_shape and
    spacing describe the underlying uniform grid in chart coordinates.
    """

    metric: Metric
    nodes: np.ndarray
    weights: np.ndarray
    grid_shape: tuple[int, int]
    spacing: tuple[float, float]

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def build_grid(metric: Metric, n: int) -> QuadratureRule:
    """Uniform grid quadrature with n nodes per axis.

    n must be even and at least 4.  Torus: N x N periodic grid, weight
    (2 pi / N)^2 sqrt(det g) everywhere.  Sphere: interior latitude rows
    u_i = pi i / N (i = 1..N-1) by longitude columns, sin-weighted and
    rescaled so the weights sum to the exact sphere area.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidParameterError(f"grid size must be even and >= 4, got {n}")
    if isinstance(metric, TorusMetric):
        axis = TWO_PI * np.arange(n) / n
        uu, vv = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.column_stack([uu.ravel(), vv.ravel()])
        w = (TWO_PI / n) ** 2 * metric.sqrt_det()
        weights = np.full(nodes.shape[0], w, dtype=np.float64)
        return QuadratureRule(metric, nodes, weights, (n, n), (TWO_PI / n, TWO_PI / n))

    du = math.pi / n
    dv = TWO_PI / n
    lat = math.pi * np.arange(1, n) / n
    lon = TWO_PI * np.arange(n) / n
    uu, vv = np.meshgrid(lat, lon, indexing="ij")
    nodes = np.column_stack([uu.ravel(), vv.ravel()])
    r2 = metric.radius * metric.radius
    weights = (r2 * du * dv) * np.sin(nodes[:, 0])
    # Trapezoid-in-latitude misses the area by O(N^-2); one constant factor
    # restores the exact total measure.
    weights *= (4.0 * math.pi * r2) / weights.sum()
    return QuadratureRule(metric, nodes, weights, (n - 1, n), (du, dv))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformDensity:
    """Constant density; normalizes to 1/vol(M)."""

    z: Optional[float] = None

    def raw_values(self, pts: np.ndarray) -> np.ndarray:
        return np.ones(np.atleast_2d(pts).shape[0], dtype=np.float64)

    def sup_raw(self) -> float:
        return 1.0

    def label(self) -> str:
        return "uniform"


@dataclass(frozen=True)
class CosineBump:
    """1 + alpha cos(coordinate) along one chart axis, |alpha| < 1."""

    alpha: float
    axis: str = "u"
    z: Optional[float] = None

    def __post_init__(self):
        if not abs(self.alpha) < 1.0:
            raise InvalidParameterError(
                f"|alpha| must be < 1 to keep the density positive, got {self.alpha}"
            )
        if self.axis not in ("u", "v"):
            raise InvalidParameterError(f"axis must be 'u' or 'v', got {self.axis!r}")

    def raw_values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        coord = pts[:, 0] if self.axis == "u" else pts[:, 1]
        return 1.0 + self.alpha * np.cos(coord)

    def sup_raw(self) -> float:
        return 1.0 + abs(self.alpha)

    def label(self) -> str:
        return f"cosine:{self.alpha}:{self.axis}"


Density = Union[UniformDensity, CosineBump]


def normalize_density(density: Density, rule: QuadratureRule) -> Density:
    """Return a copy of density with its normalizer z fixed by the rule.

    After normalization sum_i p(node_i) * weight_i = 1 holds to rounding.
    """
    raw = density.raw_values(rule.nodes)
    if raw.min() <= 0.0:
        raise InvalidDensityError("density is not positive at every node")
    z = float(np.sum(raw * rule.weights))
    if not z > 0.0:
        raise InvalidDensityError("normalizer must be positive")
    return dataclasses.replace(density, z=z)


def density_values(density: Density, pts: np.ndarray) -> np.ndarray:
    """Normalized density at chart points; requires normalize_density first."""
    if density.z is None:
        raise InvalidDensityError("density has no normalizer; normalize it first")
    return density.raw_values(pts) / density.z


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_points(density: Density, metric: Metric, n: int, seed: int) -> np.ndarray:
    """Draw n points from p d(mu_g) by rejection with an analytic envelope.

    The proposal is uniform on the chart rectangle; a draw at x is accepted
    with probability p_raw(x) * sqrt(det g)(x) / sup(p_raw * sqrt(det g)).
    Torus metrics have constant sqrt(det g), so only the density shape
    matters there.  Acceptance uses three uniforms per proposal (u, v,
    accept), always consumed, so the stream layout does not depend on data.
    Accepted draws are gathered with np.compress, one pass, into the
    cloud's coordinate rows; the points are their (n, 2) transpose, so each
    coordinate column is contiguous and distance rows read it uncopied.
    """
    if n <= 0:
        raise InvalidParameterError(f"sample count must be positive, got {n}")
    if density.z is None:
        raise InvalidDensityError("density has no normalizer; normalize it first")

    gen = Xorshift64Star(seed)
    sup = density.sup_raw()

    if isinstance(metric, TorusMetric):
        u_lo, u_span = 0.0, TWO_PI
    else:
        u_lo, u_span = POLE_GUARD, math.pi - 2.0 * POLE_GUARD

    cloud = np.empty((2, n))  # one contiguous row per coordinate
    accepted = 0
    while accepted < n:
        batch = max(1024, n - accepted)
        draws = gen.uniforms(3 * batch).reshape(batch, 3)
        pts = np.empty((2, batch))
        pts[0] = u_lo + u_span * draws[:, 0]
        pts[1] = TWO_PI * draws[:, 1]
        ratio = density.raw_values(pts.T) / sup
        if isinstance(metric, SphereMetric):
            # sup over sqrt(det g) = R^2 at the equator; ratio picks up sin(u).
            ratio = ratio * np.sin(pts[0])
        if ratio.max() > 1.0 + 1e-12:
            raise LapLabError("rejection envelope violated; analytic sup is wrong")
        keep = draws[:, 2] < ratio
        del draws, ratio  # free them before the gather
        kept = np.compress(keep, pts, axis=1)[:, :n - accepted]
        cloud[:, accepted:accepted + kept.shape[1]] = kept
        accepted += kept.shape[1]
    return cloud.T
