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
from laplab.errors import InvalidParameterError
from laplab.geometry import (
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    ambient_sq_dist,
    embed_many,
    sphere_sq_geodesic,
    sq_dist,
    torus_grid_rows,
    torus_sq_geodesic,
    _wrap_min,
)
from laplab.operators import _chart_points

TWO_PI = 2.0 * math.pi


def brute_torus_distance(metric, p, q, reach=8):
    """Wide lattice search; reference for the per-axis wrap minima."""
    best = math.inf
    du = p[0] - q[0]
    dv = p[1] - q[1]
    for k in range(-reach, reach + 1):
        for l in range(-reach, reach + 1):
            a = du + TWO_PI * k
            b = dv + TWO_PI * l
            q2 = metric.E * a * a + metric.G * b * b
            best = min(best, q2)
    return math.sqrt(best)


def geodesic(metric, p, q):
    """Geodesic distance of two chart points, read off the pairwise table."""
    d2 = sq_dist(metric, p[None], q[None])
    return math.sqrt(float(d2[0, 0]))


def chord(embedding, p, q):
    """Chord distance of two chart points' images, read off the pairwise table."""
    d2 = ambient_sq_dist(embedding, p[None], q[None])
    return math.sqrt(float(d2[0, 0]))


# --- chart and metric basics ------------------------------------------------


def test_chart_point_wraps_into_base_window():
    [p] = _chart_points([TWO_PI + 0.25, -0.5])
    assert 0.0 <= p[0] < TWO_PI and 0.0 <= p[1] < TWO_PI
    assert p[0] == pytest.approx(0.25)
    assert p[1] == pytest.approx(TWO_PI - 0.5)


def test_torus_metric_validation():
    with pytest.raises(InvalidParameterError):
        TorusMetric(1.0, 1.1, 1.0)  # coupled
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
    # an unrepresentable E G is reported as a scale fault, whatever the ratio
    assert TorusMetric.anisotropic(4.0).anisotropy_ratio() == 256.0
    for c in (1e154, 1e-160):
        with pytest.raises(InvalidParameterError, match="scale") as err:
            TorusMetric.scaled_flat(c)
        assert "ratio" not in str(err.value) and "definite" not in str(err.value)
    for coefficients in ((4.6e16, 0.0, 1.0), (1e-200, 0.0, 1e200)):
        with pytest.raises(InvalidParameterError, match="ratio"):
            TorusMetric(*coefficients)
    with pytest.raises(InvalidParameterError, match="definite"):
        TorusMetric(1.0, 0.0, -1.0)


def test_coupled_torus_metric_is_refused_naming_f():
    for f in (0.3, -0.3, 1e-300, math.nan):
        with pytest.raises(InvalidParameterError, match="F must be 0") as err:
            TorusMetric(1.0, f, 2.0)
        assert f"F={f}" in str(err.value)
    assert TorusMetric(1.0, -0.0, 2.0).anisotropy_ratio() == 2.0  # -0.0 == 0.0


def test_anisotropic_has_unit_volume_form():
    m = TorusMetric.anisotropic(2.0)
    assert m.sqrt_det() == pytest.approx(1.0, abs=1e-15)
    assert m.matrix()[0, 0] == 4.0 and m.matrix()[1, 1] == 0.25


# --- geodesic distances -----------------------------------------------------


def test_flat_torus_half_loop():
    d = geodesic(TorusMetric.flat(), np.array([0.0, 0.0]), np.array([math.pi, 0.0]))
    assert d == pytest.approx(math.pi, abs=1e-14)


def test_anisotropic_half_loop_matches_wide_brute_force():
    m = TorusMetric(4.0, 0.0, 0.25)
    p, q = np.array([0.0, 0.0]), np.array([math.pi, 0.0])
    d = geodesic(m, p, q)
    assert d == pytest.approx(2 * math.pi, abs=1e-12)
    assert d == pytest.approx(brute_torus_distance(m, p, q), abs=1e-12)


def test_sphere_quarter_great_circle():
    d = geodesic(
        SphereMetric(1.0), np.array([math.pi / 2, 0.0]), np.array([math.pi / 2, math.pi / 2])
    )
    assert d == pytest.approx(math.pi / 2, abs=1e-14)


def test_sphere_near_antipodal_is_stable():
    eps = 1e-9
    d = geodesic(
        SphereMetric(1.0),
        np.array([math.pi / 2, 0.0]),
        np.array([math.pi / 2 + eps, math.pi]),
    )
    assert abs(d - math.pi) < 1e-8


@st.composite
def torus_metrics(draw):
    mode = draw(st.integers(0, 2))
    if mode == 0:
        return TorusMetric.flat()
    if mode == 1:
        return TorusMetric.anisotropic(draw(st.floats(0.5, 2.0)))
    return TorusMetric(draw(st.floats(0.25, 4.0)), 0.0, draw(st.floats(0.25, 4.0)))


@st.composite
def chart_points(draw):
    return np.array([
        draw(st.floats(0.0, TWO_PI, exclude_max=True)),
        draw(st.floats(0.0, TWO_PI, exclude_max=True)),
    ])


@given(torus_metrics(), chart_points(), chart_points())
def test_torus_distance_matches_brute_force(metric, p, q):
    d = geodesic(metric, p, q)
    ref = brute_torus_distance(metric, p, q)
    assert d == pytest.approx(ref, abs=1e-10, rel=1e-10)


@given(torus_metrics(), chart_points(), chart_points())
def test_torus_distance_symmetric_and_separating(metric, p, q):
    d_pq = geodesic(metric, p, q)
    d_qp = geodesic(metric, q, p)
    assert d_pq == d_qp  # bitwise, not just approximately
    assert geodesic(metric, p, p) == 0.0
    if (p[0], p[1]) != (q[0], q[1]):
        assert d_pq > 0.0


@given(torus_metrics(), chart_points(), chart_points(), chart_points())
@settings(max_examples=30)
def test_torus_triangle_inequality(metric, p, q, r):
    d_pq = geodesic(metric, p, q)
    d_pr = geodesic(metric, p, r)
    d_rq = geodesic(metric, r, q)
    assert d_pq <= d_pr + d_rq + 1e-12


@given(
    st.floats(0.3, math.pi - 0.3),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.3, math.pi - 0.3),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
def test_sphere_distance_properties(u1, v1, u2, v2):
    m = SphereMetric(1.5)
    p, q = np.array([u1, v1]), np.array([u2, v2])
    d_pq = geodesic(m, p, q)
    assert d_pq == geodesic(m, q, p)
    assert 0.0 <= d_pq <= 1.5 * math.pi + 1e-12
    assert geodesic(m, p, p) == 0.0


@given(torus_metrics(), chart_points(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_small_torus_distance_matches_metric_form(metric, p, a, b):
    # geodesic distance between nearby points reduces to the quadratic form
    # of the chart difference actually stored, wrapped into (-pi, pi]
    s = 1e-4
    [q] = _chart_points([p[0] + s * a, p[1] + s * b])
    du, dv = (math.remainder(d, TWO_PI) for d in (q[0] - p[0], q[1] - p[1]))
    d = geodesic(metric, p, q)
    form = math.sqrt(metric.E * du * du + metric.G * dv * dv)
    assert d == pytest.approx(form, abs=1e-16, rel=1e-6)


def test_pairwise_distance_matrix_is_bitwise_symmetric():
    m = TorusMetric.anisotropic(1.7)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, TWO_PI, size=(60, 2))
    d2 = sq_dist(m, pts, pts)
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


def _three_wraps(coef, d):
    """The wrap minimum as it was first written: coef * x * x evaluated at the
    three wraps x = d, d - 2 pi, d + 2 pi, and the least of the three kept."""
    best = (d * coef) * d
    for a in (-TWO_PI, TWO_PI):
        x = d + a
        best = np.minimum(best, (x * coef) * x)
    return best


def _wrap_inputs():
    """Unreduced chart differences up to +-5 pi, plus the values where a wrap
    changes or the form under- or overflows."""
    edges = TWO_PI * np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = np.concatenate([
        edges, [0.0, 5e-324, 1e-160, 3e-160, 1e-300, 1e300, np.inf, np.nan],
    ])
    rand = np.random.default_rng(11).uniform(-5 * math.pi, 5 * math.pi, 100_000)
    return np.concatenate([special, -special, rand])


_WRAP_COEFS = [1.0, 1.5**2, 1.5**-2, 4.0**2, 4.0**-2, 256.0, 1e150, 1e-150]


@pytest.mark.parametrize("coef", _WRAP_COEFS)
def test_wrap_minimum_is_bitwise_three_wraps(coef):
    # one evaluation at min(|d|, 2 pi - |d|) must give the bits of the
    # three-wrap minimum for every d, not only for |d| < 2 pi
    d = _wrap_inputs()
    with np.errstate(all="ignore"):  # 1e300, inf and nan over- and underflow
        want = _three_wraps(coef, d)
        got = _wrap_min(coef, d.copy(), np.empty_like(d), np.empty_like(d))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    assert np.array_equal(got[fin].view(np.uint64), want[fin].view(np.uint64))


@pytest.mark.parametrize("coef", [1.0, 1.5**2, 256.0, 1e150, 1e-150])
def test_torus_distance_of_unreduced_points_is_bitwise_three_wraps(coef):
    # points off the base window: their differences reach +-5 pi; zero squares
    # of distinct points become 5e-324 exactly where the reference says so
    d = _wrap_inputs()[:20_000]
    p = np.column_stack([d, d[::-1]])
    rand = np.random.default_rng(12).uniform(-2.5 * math.pi, 2.5 * math.pi, (40, 2))
    q = np.vstack([[0.0, 0.0], [TWO_PI, -TWO_PI], rand])
    for metric in (TorusMetric(coef, 0.0, coef), TorusMetric(16.0 * coef, 0.0, coef / 16.0)):
        with np.errstate(all="ignore"):
            du = p[:, 0, None] - q[None, :, 0]
            dv = p[:, 1, None] - q[None, :, 1]
            want = _three_wraps(metric.E, du) + _three_wraps(metric.G, dv)
            apart = (np.remainder(du, TWO_PI) != 0.0) | (np.remainder(dv, TWO_PI) != 0.0)
            want[(want == 0.0) & apart] = 5e-324
            got = torus_sq_geodesic(metric, p, q)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        fin = ~np.isnan(want)
        assert np.array_equal(got[fin].view(np.uint64), want[fin].view(np.uint64))


def _grid_table(metric, u, v):
    out = np.empty((len(u) * len(v),) * 2)
    blocks = list(torus_grid_rows(metric, u, v, out)(0, len(out)))
    assert blocks == [(lo, min(lo + 16, len(out))) for lo in range(0, len(out), 16)]
    return out


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("ratio", [1.0, 2.25, 16.0, 256.0])
def test_torus_grid_table_is_bitwise_pairwise(n, ratio):
    # the per-axis table must equal the pairwise function on the grid nodes
    a = ratio**0.25
    metric = TorusMetric(a * a, 0.0, 1.0 / (a * a))
    nodes = build_grid(metric, n).nodes
    assert np.array_equal(_grid_table(metric, nodes[::n, 0], nodes[:n, 1]),
                          torus_sq_geodesic(metric, nodes, nodes))


def test_torus_grid_table_non_square_grid():
    metric = TorusMetric(1.0, 0.0, 16.0)
    u = np.arange(6) * (TWO_PI / 6)
    v = np.arange(10) * (TWO_PI / 10) + 0.1
    nodes = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.array_equal(_grid_table(metric, u, v),
                          torus_sq_geodesic(metric, nodes, nodes))


@pytest.mark.parametrize("metric", [TorusMetric.flat()], ids=["diagonal"])
def test_torus_tables_separate_points_whose_square_underflows(metric):
    # chart separations of 7.76e-240 and 1e-300 square to 0 in float64
    u, v = np.array([0.0, 1e-300]), np.array([0.0, 7.76e-240])
    nodes = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)
    d2 = torus_sq_geodesic(metric, nodes, nodes)
    assert np.array_equal(d2 > 0.0, ~np.eye(4, dtype=bool))
    assert np.array_equal(_grid_table(metric, u, v), d2)


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


def test_donut_radii_limit_is_where_squared_chords_overflow():
    # the longest chord is 2 (major + minor); its square must stay finite
    emb = DonutTorus(6.6e153, 1.0)
    d2 = ambient_sq_dist(emb, np.array([[0.0, 0.0]]), np.array([[0.0, math.pi]]))
    assert 0.0 < d2[0, 0] < math.inf
    with pytest.raises(InvalidParameterError):
        DonutTorus(6.8e153, 1.0)


def test_clifford_ambient_distances():
    emb = CliffordTorus()
    p0 = np.array([0.0, 0.0])
    assert chord(emb, p0, np.array([math.pi, 0.0])) == pytest.approx(2.0, abs=1e-15)
    assert chord(emb, p0, np.array([0.0, math.pi])) == pytest.approx(2.0, abs=1e-15)
    assert chord(emb, p0, p0) == 0.0


@given(chart_points(), chart_points())
def test_ambient_sq_dist_symmetric(p, q):
    emb = CliffordTorus()
    pts = np.array([p, q])
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
    """The out-of-place great-circle expression over the whole table, with
    a.b as (a0 b0 + a1 b1) + a2 b2."""
    a, b = embed_many(UnitSphere(), p), embed_many(UnitSphere(), q)
    ab = [[np.multiply.outer(a[:, i], b[:, j]) for j in range(3)] for i in range(3)]
    dot = (ab[0][0] + ab[1][1]) + ab[2][2]
    cx, cy, cz = ab[1][2] - ab[2][1], ab[2][0] - ab[0][2], ab[0][1] - ab[1][0]
    theta = np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), dot)
    return (radius * theta) ** 2


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


# --- closed-form embedding maps --------------------------------------------


@given(st.lists(chart_points(), min_size=1, max_size=8))
def test_embeddings_are_their_closed_form_maps(pts):
    # the first fundamental forms S6 compares against follow from these maps
    p = np.array(pts)
    cu, su, cv, sv = np.cos(p[:, 0]), np.sin(p[:, 0]), np.cos(p[:, 1]), np.sin(p[:, 1])
    ring = 3.0 + 0.5 * cu
    maps = {
        CliffordTorus(): [cu, su, cv, sv],
        DonutTorus(3.0, 0.5): [ring * cv, ring * sv, 0.5 * su],
        UnitSphere(): [su * cv, su * sv, cu],
    }
    for emb, cols in maps.items():
        assert np.array_equal(embed_many(emb, p), np.column_stack(cols))
