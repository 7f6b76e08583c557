"""Geometry layer: charts, metrics, geodesics, embeddings.

Oracles used here:
  - lattice brute force over a wide wrap range for torus distances,
  - closed-form great-circle distances for the sphere,
  - analytic embedding Jacobians for induced metrics.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplab.discretization import build_grid
from laplab.errors import InvalidParameterError, PoleChartError
from laplab.geometry import (
    ChartPoint,
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    ambient_distance,
    ambient_sq_dist,
    embed_many,
    geodesic_distance,
    induced_metric,
    metric_sq_geodesic,
    sphere_sq_geodesic,
    torus_grid_sq_geodesic,
    torus_sq_geodesic,
)

TWO_PI = 2.0 * math.pi


def brute_torus_distance(metric, p, q, reach=8):
    """Wide lattice search; reference for the production shift range."""
    best = math.inf
    du = p.u - q.u
    dv = p.v - q.v
    for k in range(-reach, reach + 1):
        for l in range(-reach, reach + 1):
            a = du + TWO_PI * k
            b = dv + TWO_PI * l
            q2 = metric.E * a * a + 2 * metric.F * a * b + metric.G * b * b
            best = min(best, q2)
    return math.sqrt(best)


# --- chart and metric basics ------------------------------------------------


def test_chart_point_wraps_into_base_window():
    p = ChartPoint(TWO_PI + 0.25, -0.5)
    assert 0.0 <= p.u < TWO_PI and 0.0 <= p.v < TWO_PI
    assert p.u == pytest.approx(0.25)
    assert p.v == pytest.approx(TWO_PI - 0.5)


def test_torus_metric_validation():
    with pytest.raises(InvalidParameterError):
        TorusMetric(1.0, 1.1, 1.0)  # det < 0
    with pytest.raises(InvalidParameterError):
        TorusMetric(-1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        TorusMetric.anisotropic(-2.0)
    with pytest.raises(InvalidParameterError):
        TorusMetric.anisotropic(5.0)  # ratio 625 past the admission cutoff
    with pytest.raises(InvalidParameterError):
        TorusMetric(4.6e16, 0.0, 1.0)  # small eigenvalue rounds to 0: ratio inf
    with pytest.raises(InvalidParameterError):
        SphereMetric(0.0)


def test_torus_metric_rejections_name_their_cause():
    # the ratio and the definiteness test run on E, F, G over max(E, G), so
    # an unrepresentable E G - F^2 is reported as a scale fault
    assert TorusMetric.anisotropic(4.0).anisotropy_ratio() == 256.0
    for c in (1e154, 1e-160):
        with pytest.raises(InvalidParameterError, match="scale") as err:
            TorusMetric.scaled_flat(c)
        assert "ratio" not in str(err.value) and "definite" not in str(err.value)
    for coefficients in ((4.6e16, 0.0, 1.0), (1e-200, 0.0, 1e200)):
        with pytest.raises(InvalidParameterError, match="ratio"):
            TorusMetric(*coefficients)
    with pytest.raises(InvalidParameterError, match="definite"):
        TorusMetric(1.0, 1.1, 1.0)


def test_anisotropic_has_unit_volume_form():
    m = TorusMetric.anisotropic(2.0)
    assert m.sqrt_det() == pytest.approx(1.0, abs=1e-15)
    assert m.matrix()[0, 0] == 4.0 and m.matrix()[1, 1] == 0.25


# --- geodesic distances -----------------------------------------------------


def test_flat_torus_half_loop():
    d = geodesic_distance(TorusMetric.flat(), ChartPoint(0, 0), ChartPoint(math.pi, 0))
    assert d == pytest.approx(math.pi, abs=1e-14)


def test_anisotropic_half_loop_matches_wide_brute_force():
    m = TorusMetric(4.0, 0.0, 0.25)
    p, q = ChartPoint(0, 0), ChartPoint(math.pi, 0)
    d = geodesic_distance(m, p, q)
    assert d == pytest.approx(2 * math.pi, abs=1e-12)
    assert d == pytest.approx(brute_torus_distance(m, p, q), abs=1e-12)


def test_sphere_quarter_great_circle():
    d = geodesic_distance(
        SphereMetric(1.0), ChartPoint(math.pi / 2, 0), ChartPoint(math.pi / 2, math.pi / 2)
    )
    assert d == pytest.approx(math.pi / 2, abs=1e-14)


def test_sphere_near_antipodal_is_stable():
    eps = 1e-9
    d = geodesic_distance(
        SphereMetric(1.0),
        ChartPoint(math.pi / 2, 0.0),
        ChartPoint(math.pi / 2 + eps, math.pi),
    )
    assert abs(d - math.pi) < 1e-8


def test_sphere_pole_guard():
    with pytest.raises(PoleChartError):
        geodesic_distance(
            SphereMetric(1.0), ChartPoint(1e-9, 0), ChartPoint(math.pi / 2, 0)
        )


@st.composite
def torus_metrics(draw):
    mode = draw(st.integers(0, 2))
    if mode == 0:
        return TorusMetric.flat()
    if mode == 1:
        return TorusMetric.anisotropic(draw(st.floats(0.5, 2.0)))
    e = draw(st.floats(0.25, 4.0))
    g = draw(st.floats(0.25, 4.0))
    fmax = 0.9 * math.sqrt(e * g)
    f = draw(st.floats(-fmax, fmax))
    try:
        return TorusMetric(e, f, g)
    except InvalidParameterError:
        return TorusMetric.flat()


@st.composite
def chart_points(draw):
    return ChartPoint(
        draw(st.floats(0.0, TWO_PI, exclude_max=True)),
        draw(st.floats(0.0, TWO_PI, exclude_max=True)),
    )


@given(torus_metrics(), chart_points(), chart_points())
def test_torus_distance_matches_brute_force(metric, p, q):
    d = geodesic_distance(metric, p, q)
    ref = brute_torus_distance(metric, p, q)
    assert d == pytest.approx(ref, abs=1e-10, rel=1e-10)


@given(torus_metrics(), chart_points(), chart_points())
def test_torus_distance_symmetric_and_separating(metric, p, q):
    d_pq = geodesic_distance(metric, p, q)
    d_qp = geodesic_distance(metric, q, p)
    assert d_pq == d_qp  # bitwise, not just approximately
    assert geodesic_distance(metric, p, p) == 0.0
    if (p.u, p.v) != (q.u, q.v):
        assert d_pq > 0.0


@given(torus_metrics(), chart_points(), chart_points(), chart_points())
@settings(max_examples=30)
def test_torus_triangle_inequality(metric, p, q, r):
    d_pq = geodesic_distance(metric, p, q)
    d_pr = geodesic_distance(metric, p, r)
    d_rq = geodesic_distance(metric, r, q)
    assert d_pq <= d_pr + d_rq + 1e-12


@given(
    st.floats(0.3, math.pi - 0.3),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.3, math.pi - 0.3),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
def test_sphere_distance_properties(u1, v1, u2, v2):
    m = SphereMetric(1.5)
    p, q = ChartPoint(u1, v1), ChartPoint(u2, v2)
    d_pq = geodesic_distance(m, p, q)
    assert d_pq == geodesic_distance(m, q, p)
    assert 0.0 <= d_pq <= 1.5 * math.pi + 1e-12
    assert geodesic_distance(m, p, p) == 0.0


@given(torus_metrics(), chart_points(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_small_torus_distance_matches_metric_form(metric, p, a, b):
    # geodesic distance between nearby points reduces to the quadratic form
    # of the chart difference actually stored, wrapped into (-pi, pi]
    s = 1e-4
    q = ChartPoint(p.u + s * a, p.v + s * b)
    du, dv = (math.remainder(d, TWO_PI) for d in (q.u - p.u, q.v - p.v))
    d = geodesic_distance(metric, p, q)
    form = math.sqrt(metric.E * du * du + 2 * metric.F * du * dv + metric.G * dv * dv)
    assert d == pytest.approx(form, abs=1e-16, rel=1e-6)


def test_pairwise_distance_matrix_is_bitwise_symmetric():
    m = TorusMetric.anisotropic(1.7)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, TWO_PI, size=(60, 2))
    d2 = metric_sq_geodesic(m, pts, pts)
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)


def _lattice_sq_geodesic(metric, p, q, reach=2):
    """Pairwise minimum of the diagonal form over the full +-reach square."""
    du = p[:, 0, None] - q[None, :, 0]
    dv = p[:, 1, None] - q[None, :, 1]
    best = np.full(du.shape, np.inf)
    for k in range(-reach, reach + 1):
        x = du + k * TWO_PI
        for l in range(-reach, reach + 1):
            y = dv + l * TWO_PI
            best = np.minimum(best, metric.E * x * x + metric.G * y * y)
    return best


@pytest.mark.parametrize("ratio", [1.0, 2.9, 16.0, 81.0, 256.0])
def test_diagonal_torus_distance_is_bitwise_lattice_minimum(ratio):
    # the per-axis wrap minimum must equal the two-dimensional search bit
    # for bit, on the grid-64 nodes and on random points
    nodes = np.arange(64) * (TWO_PI / 64)
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    rand = np.random.default_rng(5).uniform(0.0, TWO_PI, size=(300, 2))
    p = np.vstack([grid, rand])
    q = np.vstack([grid[::41], rand[:60]])
    a = ratio**0.25
    for metric in (TorusMetric(ratio, 0.0, 1.0), TorusMetric(1.0, 0.0, ratio),
                   TorusMetric(a * a, 0.0, 1.0 / (a * a))):
        assert np.array_equal(torus_sq_geodesic(metric, p, q),
                              _lattice_sq_geodesic(metric, p, q))


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("ratio", [1.0, 2.25, 16.0, 256.0])
def test_torus_grid_table_is_bitwise_pairwise(n, ratio):
    # the per-axis table must equal the pairwise function on the grid nodes
    a = ratio**0.25
    metric = TorusMetric(a * a, 0.0, 1.0 / (a * a))
    nodes = build_grid(metric, n).nodes
    assert np.array_equal(torus_grid_sq_geodesic(metric, nodes[::n, 0], nodes[:n, 1]),
                          torus_sq_geodesic(metric, nodes, nodes))


def test_torus_grid_table_non_square_grid():
    metric = TorusMetric(1.0, 0.0, 16.0)
    u = np.arange(6) * (TWO_PI / 6)
    v = np.arange(10) * (TWO_PI / 10) + 0.1
    nodes = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.array_equal(torus_grid_sq_geodesic(metric, u, v),
                          torus_sq_geodesic(metric, nodes, nodes))


# --- embeddings -------------------------------------------------------------


def test_clifford_embedding_point():
    x = embed_many(CliffordTorus(), np.array([[math.pi, 0.0]]))[0]
    assert np.allclose(x, [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_unit_sphere_embedding_point():
    x = embed_many(UnitSphere(), np.array([[math.pi / 2, 0.0]]))[0]
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-15)


def test_donut_embedding_shape():
    emb = DonutTorus(2.0, 1.0)
    x = embed_many(emb, np.array([[0.0, 0.0]]))[0]
    assert np.allclose(x, [3.0, 0.0, 0.0], atol=1e-15)
    with pytest.raises(InvalidParameterError):
        DonutTorus(1.0, 2.0)  # tube must be thinner than the ring


def test_clifford_ambient_distances():
    emb = CliffordTorus()
    p0 = ChartPoint(0, 0)
    assert ambient_distance(emb, p0, ChartPoint(math.pi, 0)) == pytest.approx(2.0, abs=1e-15)
    assert ambient_distance(emb, p0, ChartPoint(0, math.pi)) == pytest.approx(2.0, abs=1e-15)
    assert ambient_distance(emb, p0, p0) == 0.0


@given(chart_points(), chart_points())
def test_ambient_sq_dist_symmetric(p, q):
    emb = CliffordTorus()
    pts = np.array([[p.u, p.v], [q.u, q.v]])
    d2 = ambient_sq_dist(emb, pts, pts)
    assert d2[0, 1] == d2[1, 0]
    assert d2[0, 0] == 0.0 and d2[1, 1] == 0.0


def test_chord_never_exceeds_arc_on_sphere():
    rng = np.random.default_rng(11)
    pts = np.column_stack(
        [rng.uniform(0.2, math.pi - 0.2, 40), rng.uniform(0, TWO_PI, 40)]
    )
    chord2 = ambient_sq_dist(UnitSphere(), pts, pts)
    from laplab.geometry import sphere_sq_geodesic

    arc2 = sphere_sq_geodesic(1.0, pts, pts)
    assert np.all(chord2 <= arc2 + 1e-12)


def _chord_sq_reference(a, b):
    """Squared chord lengths, (d0^2 + d2^2) + (d1^2 + d3^2), term by term."""
    d = [a[:, None, k] - b[None, :, k] for k in range(a.shape[1])]
    s = d[0] * d[0] + d[2] * d[2]
    if len(d) == 4:
        return s + (d[1] * d[1] + d[3] * d[3])
    return s + d[1] * d[1]


def _sphere_sq_reference(radius, p, q):
    """The out-of-place great-circle expression, in blocks of 512 rows."""
    a, b = embed_many(UnitSphere(), p), embed_many(UnitSphere(), q)
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], 512):
        blk = a[lo:lo + 512]
        dot = blk @ b.T
        cx = np.multiply.outer(blk[:, 1], b[:, 2]) - np.multiply.outer(blk[:, 2], b[:, 1])
        cy = np.multiply.outer(blk[:, 2], b[:, 0]) - np.multiply.outer(blk[:, 0], b[:, 2])
        cz = np.multiply.outer(blk[:, 0], b[:, 1]) - np.multiply.outer(blk[:, 1], b[:, 0])
        theta = np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), dot)
        out[lo:lo + 512] = (radius * theta) ** 2
    return out


def _grid_and_random(metric, n=32, extra=300):
    rng = np.random.default_rng(17)
    lo = 0.01 if isinstance(metric, SphereMetric) else 0.0
    hi = math.pi - 0.01 if isinstance(metric, SphereMetric) else TWO_PI
    rand = np.column_stack([rng.uniform(lo, hi, extra), rng.uniform(0.0, TWO_PI, extra)])
    return np.vstack([build_grid(metric, n).nodes, rand])


@pytest.mark.parametrize("emb", [CliffordTorus(), DonutTorus(2.0, 1.0), UnitSphere()],
                         ids=["clifford", "donut", "sphere"])
def test_chord_sum_is_bitwise_fixed_order(emb):
    metric = SphereMetric(1.0) if isinstance(emb, UnitSphere) else TorusMetric.flat()
    pts = _grid_and_random(metric)
    x = embed_many(emb, pts)
    assert np.array_equal(ambient_sq_dist(emb, pts, pts), _chord_sq_reference(x, x))
    assert np.array_equal(ambient_sq_dist(emb, pts[:7], pts),
                          _chord_sq_reference(x[:7], x))


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_sphere_distance_is_bitwise_out_of_place_expression(radius):
    pts = _grid_and_random(SphereMetric(radius))
    assert np.array_equal(sphere_sq_geodesic(radius, pts, pts),
                          _sphere_sq_reference(radius, pts, pts))
    assert np.array_equal(sphere_sq_geodesic(radius, pts[:1], pts),
                          _sphere_sq_reference(radius, pts[:1], pts))


# --- induced metrics --------------------------------------------------------


@given(chart_points())
def test_clifford_induced_metric_is_identity(p):
    g = induced_metric(CliffordTorus(), p)
    assert np.max(np.abs(g - np.eye(2))) < 1e-8


def test_sphere_induced_metric_at_equator():
    g = induced_metric(UnitSphere(), ChartPoint(math.pi / 2, 0.0))
    assert np.max(np.abs(g - np.diag([1.0, 1.0]))) < 1e-8


def test_donut_induced_metric_outer_circle():
    g = induced_metric(DonutTorus(2.0, 1.0), ChartPoint(0.0, 0.0))
    assert np.max(np.abs(g - np.diag([1.0, 9.0]))) < 1e-6


def test_donut_induced_metric_matches_first_fundamental_form():
    emb = DonutTorus(2.0, 1.0)
    for u in (0.5, 2.0, 4.0):
        g = induced_metric(emb, ChartPoint(u, 1.0))
        expected = np.diag([1.0, (2.0 + math.cos(u)) ** 2])
        assert np.max(np.abs(g - expected)) < 1e-6


def test_induced_metric_step_validation():
    with pytest.raises(InvalidParameterError):
        induced_metric(CliffordTorus(), ChartPoint(0, 0), h=0.0)
    with pytest.raises(InvalidParameterError):
        induced_metric(CliffordTorus(), ChartPoint(0, 0), h=0.1)
