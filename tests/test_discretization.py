"""Quadrature grids, density normalization, and the rejection sampler."""

import math

import numpy as np
import pytest
import scipy.stats

from laplab.discretization import (
    CosineBump,
    UniformDensity,
    build_grid,
    density_values,
    normalize_density,
    sample_points,
)
from laplab.errors import InvalidDensityError, InvalidParameterError
from laplab.geometry import POLE_GUARD, SphereMetric, TorusMetric

FOUR_PI_SQ = 4.0 * math.pi**2


# --- grids ------------------------------------------------------------------


def test_flat_grid_n4_uniform_weights():
    rule = build_grid(TorusMetric.flat(), 4)
    assert rule.n == 16
    assert np.allclose(rule.weights, (math.pi / 2) ** 2, atol=1e-15)
    assert rule.grid_shape == (4, 4)


def test_anisotropic_grid_total_area():
    rule = build_grid(TorusMetric(4.0, 0.0, 0.25), 8)
    assert abs(rule.weights.sum() - FOUR_PI_SQ) < 1e-12


def test_scaled_grid_total_area():
    # c^2 * flat has sqrt(det) = c^2, area 4 pi^2 c^2
    rule = build_grid(TorusMetric.scaled_flat(1.5), 8)
    assert abs(rule.weights.sum() - FOUR_PI_SQ * 2.25) < 1e-10


def test_sphere_grid_total_area():
    rule = build_grid(SphereMetric(1.0), 16)
    total = rule.weights.sum()
    assert abs(total - 4 * math.pi) < 1e-3          # coarse anchor
    assert abs(total - 4 * math.pi) / (4 * math.pi) < 1e-10  # tight invariant
    assert rule.n == 15 * 16
    assert np.all(rule.weights > 0)


def test_sphere_grid_excludes_poles():
    rule = build_grid(SphereMetric(2.0), 8)
    assert rule.nodes[:, 0].min() > 0.0
    assert rule.nodes[:, 0].max() < math.pi


def test_grid_node_order_is_row_major_in_u():
    rule = build_grid(TorusMetric.flat(), 4)
    # first block shares u, v ascends
    assert np.allclose(rule.nodes[:4, 0], rule.nodes[0, 0])
    assert np.all(np.diff(rule.nodes[:4, 1]) > 0)


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        build_grid(TorusMetric.flat(), 5)
    with pytest.raises(InvalidParameterError):
        build_grid(TorusMetric.flat(), 2)


def test_torus_quadrature_is_spectrally_accurate():
    rule = build_grid(TorusMetric.flat(), 16)
    u, v = rule.nodes[:, 0], rule.nodes[:, 1]
    for f, exact in (
        (np.ones_like(u), FOUR_PI_SQ),
        (np.cos(u), 0.0),
        (np.cos(v), 0.0),
        (np.cos(u) * np.cos(v), 0.0),
        (np.cos(u) ** 2, FOUR_PI_SQ / 2),
    ):
        assert abs(float(f @ rule.weights) - exact) < 1e-10


# --- densities ----------------------------------------------------------------


def test_uniform_normalizer_is_area():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    assert p.z == pytest.approx(FOUR_PI_SQ, abs=1e-10)
    vals = density_values(p, rule.nodes)
    assert np.allclose(vals, 1.0 / FOUR_PI_SQ, atol=1e-15)
    assert abs(float(vals @ rule.weights) - 1.0) < 1e-10


def test_cosine_bump_normalizer_is_area():
    # the cosine integrates to zero over a full period
    rule = build_grid(TorusMetric.flat(), 16)
    p = normalize_density(CosineBump(0.5, "u"), rule)
    assert p.z == pytest.approx(FOUR_PI_SQ, abs=1e-9)
    assert abs(float(density_values(p, rule.nodes) @ rule.weights) - 1.0) < 1e-10


def test_cosine_bump_zero_alpha_equals_uniform():
    rule = build_grid(TorusMetric.flat(), 8)
    a = normalize_density(CosineBump(0.0, "u"), rule)
    b = normalize_density(UniformDensity(), rule)
    assert np.array_equal(
        density_values(a, rule.nodes), density_values(b, rule.nodes)
    )


def test_cosine_bump_axis_v():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(CosineBump(0.3, "v"), rule)
    vals = density_values(p, rule.nodes)
    expected = (1 + 0.3 * np.cos(rule.nodes[:, 1])) / FOUR_PI_SQ
    assert np.allclose(vals, expected, atol=1e-12)


def test_density_validation():
    with pytest.raises(InvalidParameterError):
        CosineBump(1.0, "u")  # would touch zero
    with pytest.raises(InvalidParameterError):
        CosineBump(0.5, "w")

    class Dip:
        def raw_values(self, pts):
            return np.cos(pts[:, 0])  # negative on half the torus

        def sup_raw(self):
            return 1.0

        def label(self):
            return "dip"

    rule = build_grid(TorusMetric.flat(), 8)
    with pytest.raises(InvalidDensityError):
        normalize_density(Dip(), rule)


def test_density_values_requires_normalization():
    with pytest.raises(InvalidDensityError):
        density_values(UniformDensity(), np.zeros((3, 2)))


# --- sampling -----------------------------------------------------------------


def _normalized(density, n=16):
    rule = build_grid(TorusMetric.flat(), n)
    return normalize_density(density, rule)


def test_sampling_is_deterministic():
    p = _normalized(CosineBump(0.5, "u"))
    a = sample_points(p, TorusMetric.flat(), 1000, 77)
    b = sample_points(p, TorusMetric.flat(), 1000, 77)
    assert np.array_equal(a, b)
    c = sample_points(p, TorusMetric.flat(), 1000, 78)
    assert not np.array_equal(a, c)


def test_single_sample_reproducible():
    p = _normalized(UniformDensity())
    a = sample_points(p, TorusMetric.flat(), 1, 5)
    b = sample_points(p, TorusMetric.flat(), 1, 5)
    assert a.shape == (1, 2)
    assert np.array_equal(a, b)


def test_uniform_quadrant_occupancy():
    p = _normalized(UniformDensity())
    pts = sample_points(p, TorusMetric.flat(), 100_000, 1234)
    for ulo in (0.0, math.pi):
        for vlo in (0.0, math.pi):
            frac = np.mean(
                (pts[:, 0] >= ulo)
                & (pts[:, 0] < ulo + math.pi)
                & (pts[:, 1] >= vlo)
                & (pts[:, 1] < vlo + math.pi)
            )
            assert abs(frac - 0.25) < 0.005


def test_cosine_bump_sample_mean():
    # E[cos u] = (1/2pi) * integral cos(u)(1 + 0.5 cos u) du = 0.25
    p = _normalized(CosineBump(0.5, "u"))
    pts = sample_points(p, TorusMetric.flat(), 100_000, 99)
    assert abs(np.mean(np.cos(pts[:, 0])) - 0.25) < 0.01


def test_cosine_bump_marginal_distribution():
    p = _normalized(CosineBump(0.5, "u"))
    pts = sample_points(p, TorusMetric.flat(), 20_000, 4321)

    def cdf(u):
        return (u + 0.5 * np.sin(u)) / (2 * math.pi)

    stat = scipy.stats.kstest(pts[:, 0], cdf)
    assert stat.pvalue > 0.01


def test_sphere_sampling_respects_area_element():
    sphere = SphereMetric(1.0)
    rule = build_grid(sphere, 16)
    p = normalize_density(UniformDensity(), rule)
    pts = sample_points(p, sphere, 50_000, 31)
    # uniform measure on the sphere: P(u < pi/2) = 1/2, P(u < pi/3) = 1/4
    assert abs(np.mean(pts[:, 0] < math.pi / 2) - 0.5) < 0.01
    assert abs(np.mean(pts[:, 0] < math.pi / 3) - 0.25) < 0.01
    assert pts[:, 0].min() > 0 and pts[:, 0].max() < math.pi


def _boolean_gather_sample(density, metric, n, gen):
    """sample_points as it was first written, drawing from gen: each batch's
    accepted rows taken with a boolean index, concatenated and cut to n."""
    sup = density.sup_raw()
    torus = isinstance(metric, TorusMetric)
    u_lo, u_span = (0.0, 2 * math.pi) if torus else (POLE_GUARD, math.pi - 2 * POLE_GUARD)
    chunks, accepted = [], 0
    while accepted < n:
        batch = max(1024, n - accepted)
        draws = gen.uniforms(3 * batch).reshape(batch, 3)
        pts = np.empty((batch, 2), dtype=np.float64)
        pts[:, 0] = u_lo + u_span * draws[:, 0]
        pts[:, 1] = 2 * math.pi * draws[:, 1]
        ratio = density.raw_values(pts) / sup
        if not torus:
            ratio = ratio * np.sin(pts[:, 0])
        keep = draws[:, 2] < ratio
        chunks.append(pts[keep])
        accepted += int(keep.sum())
    return np.concatenate(chunks, axis=0)[:n]


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 64_000])
@pytest.mark.parametrize("metric", [TorusMetric.flat(), SphereMetric(1.0)],
                         ids=["torus", "sphere"])
@pytest.mark.parametrize("density", [UniformDensity(), CosineBump(0.5, "u")],
                         ids=["uniform", "cosine"])
def test_sampler_is_bitwise_boolean_gather(monkeypatch, density, metric, n):
    # the points and the generator's end state (draws consumed) must be those
    # of the boolean-index loop
    import laplab.discretization as disc
    from laplab.rng import Xorshift64Star

    made = []

    class Recorded(Xorshift64Star):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(disc, "Xorshift64Star", Recorded)
    p = normalize_density(density, build_grid(metric, 16))
    got = sample_points(p, metric, n, 1234 + n)
    ref = Xorshift64Star(1234 + n)
    want = _boolean_gather_sample(p, metric, n, ref)
    assert got.shape == (n, 2) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert len(made) == 1 and made[0]._state == ref._state


def test_sample_validation():
    p = _normalized(UniformDensity())
    with pytest.raises(InvalidParameterError):
        sample_points(p, TorusMetric.flat(), 0, 1)
    with pytest.raises(InvalidDensityError):
        sample_points(UniformDensity(), TorusMetric.flat(), 10, 1)  # not normalized
