"""Operator assembly, application, Monte-Carlo evaluation, serialization.

The central oracle: every matrix entry has the closed form
c * exp(-dist^2/t) * p(x_j) * w_j off the diagonal, c = t^(-2), and the
diagonal makes rows sum to zero.  Tests recompute entries by hand from
that formula and from hand-evaluated distances.
"""

import hashlib
import json
import math
import os
import pathlib
import shutil
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import laplab.geometry as geometry
import laplab.identify as identify
import laplab.operators as operators
from laplab.cli import main
from laplab.discretization import (
    CosineBump,
    QuadratureRule,
    UniformDensity,
    build_grid,
    density_values,
    normalize_density,
    sample_points,
)
from laplab.errors import InvalidParameterError, NodeMismatchError
from laplab.geometry import (
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    ambient_sq_dist,
    sphere_sq_geodesic,
    sq_dist,
    torus_sq_geodesic,
)
from laplab.operators import (
    DENSE_NODE_CAP,
    assemble_continuous,
    build_operator,
    continuous_value,
    evaluate_discrete,
    load_matrix,
    load_operator,
    operator_distance,
    save_matrix,
    save_operator,
)


def _flat_op(n=8, t=0.5, density=None, metric=None):
    metric = metric or TorusMetric.flat()
    rule = build_grid(metric, n)
    p = normalize_density(density or UniformDensity(), rule)
    return assemble_continuous(metric, p, rule, t), rule, p


# --- row sums and signs -------------------------------------------------------


@pytest.mark.parametrize("t", [2.0**-k for k in range(0, 7)])
def test_rows_annihilate_constants_across_bandwidths(t):
    op, _, _ = _flat_op(8, t)
    ones = np.ones(op.n)
    assert np.max(np.abs(op.entries @ ones)) <= 1e-12


def test_rows_annihilate_constants_all_modes():
    cases = []
    flat = TorusMetric.flat()
    aniso = TorusMetric.anisotropic(2.0)
    sphere = SphereMetric(1.0)
    for metric, emb in ((flat, CliffordTorus()), (aniso, CliffordTorus()),
                        (sphere, UnitSphere())):
        rule = build_grid(metric, 8)
        for density in (UniformDensity(), CosineBump(0.5, "u")):
            p = normalize_density(density, rule)
            cases.append(assemble_continuous(metric, p, rule, 0.5))
            cases.append(assemble_continuous(emb, p, rule, 0.5))
    for op in cases:
        assert np.max(np.abs(op.entries.sum(axis=1))) <= 1e-12


def test_off_diagonal_signs():
    op, _, _ = _flat_op(8, 0.5)
    off = op.entries[~np.eye(op.n, dtype=bool)]
    assert np.all(off <= 0.0)
    assert np.all(np.diag(op.entries) >= 0.0)


def test_entry_matches_hand_formula():
    # flat torus, N=4, uniform: entry (0, 1) pairs nodes (0,0) and (0, pi/2)
    op, rule, p = _flat_op(4, 0.5)
    d2 = (math.pi / 2) ** 2
    c = 0.5**-2
    w = (2 * math.pi / 4) ** 2
    expected = -c * math.exp(-d2 / 0.5) * (1 / (4 * math.pi**2)) * w
    assert op.entries[0, 1] == pytest.approx(expected, rel=1e-14)


def test_weighted_kernel_symmetric_under_uniform_density():
    op, _, _ = _flat_op(8, 0.5)
    off = ~np.eye(op.n, dtype=bool)
    assert np.array_equal(op.entries[off], op.entries.T[off])


def test_bandwidth_validation_and_node_cap():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    # 1e-200 and 1e160 are positive and finite, but t^2 underflows or overflows
    for t in (0.0, math.nan, math.inf, 1e-200, 1e160):
        with pytest.raises(InvalidParameterError):
            assemble_continuous(TorusMetric.flat(), p, rule, t)
    big = build_grid(TorusMetric.flat(), 66)  # 4356 nodes > cap
    assert big.n > DENSE_NODE_CAP
    pb = normalize_density(UniformDensity(), big)
    with pytest.raises(InvalidParameterError):
        assemble_continuous(TorusMetric.flat(), pb, big, 0.5)


def test_underflow_sets_warning():
    op, _, _ = _flat_op(8, 1e-4)
    assert op.warning.startswith("64 rows have fully underflowed")
    assert _flat_op(8, 0.5)[0].warning is None


def _reference_entries(space, density, rule, t):
    """The assembly pipeline written out of place, one step at a time."""
    pw = density_values(density, rule.nodes) * rule.weights
    w = np.exp(sq_dist(space, rule.nodes, rule.nodes) / -t) * pw[None, :]
    c = t ** -2.0
    entries = -c * w
    np.fill_diagonal(entries, c * (w.sum(axis=1) - np.diagonal(w)))
    return entries


_ASSEMBLY_CASES = {
    "intrinsic-aniso": (TorusMetric.anisotropic(1.5), None),
    "intrinsic-flat": (TorusMetric.flat(), None),
    "intrinsic-scaled": (TorusMetric.scaled_flat(1.7), None),
    "intrinsic-sphere": (SphereMetric(1.0), None),
    "intrinsic-diagonal": (TorusMetric(2.0, 0.0, 1.0), None),
    "extrinsic-clifford": (TorusMetric.flat(), CliffordTorus()),
    "extrinsic-donut": (TorusMetric.flat(), DonutTorus(2.0, 1.0)),
    "extrinsic-sphere": (SphereMetric(1.0), UnitSphere()),
}


@pytest.mark.parametrize("case", sorted(_ASSEMBLY_CASES))
def test_assembly_is_bitwise_reference_pipeline(case):
    metric, emb = _ASSEMBLY_CASES[case]
    space = metric if emb is None else emb
    rule = build_grid(metric, 16)
    p = normalize_density(CosineBump(0.4, "u"), rule)
    for t in (0.5, 0.05):
        op = assemble_continuous(space, p, rule, t)
        assert np.array_equal(op.entries, _reference_entries(space, p, rule, t))


def test_non_grid_nodes_take_the_pairwise_path(monkeypatch):
    import laplab.operators as operators

    calls = []
    table = operators.torus_grid_rows

    def spy(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(operators, "torus_grid_rows", spy)
    metric = TorusMetric.anisotropic(2.0)
    grid = build_grid(metric, 8)
    nudged = grid.nodes.copy()
    nudged[9, 1] = np.nextafter(nudged[9, 1], 1.0)
    perm = np.random.default_rng(3).permutation(grid.n)
    for nodes, weights in ((grid.nodes, grid.weights),
                           (grid.nodes[perm], grid.weights[perm]),
                           (nudged, grid.weights)):
        rule = QuadratureRule(metric, nodes, weights, grid.grid_shape, grid.spacing)
        p = normalize_density(CosineBump(0.4, "v"), rule)
        op = assemble_continuous(metric, p, rule, 0.5)
        assert np.array_equal(op.entries, _reference_entries(metric, p, rule, 0.5))
    assert len(calls) == 1


# --- bits of the row-block assembly ---------------------------------------------


def _embed(emb, x):
    u, v = x[:, 0], x[:, 1]
    if isinstance(emb, CliffordTorus):
        return np.column_stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)])
    if isinstance(emb, DonutTorus):
        ring = emb.major + emb.minor * np.cos(u)
        return np.column_stack([ring * np.cos(v), ring * np.sin(v), emb.minor * np.sin(u)])
    su = np.sin(u)
    return np.column_stack([su * np.cos(v), su * np.sin(v), np.cos(u)])


def _wrap(coef, d):
    best = coef * d * d
    for a in (-2 * math.pi, 2 * math.pi):
        best = np.minimum(best, coef * (d + a) * (d + a))
    return best


def _whole_table_sq_dist(space, p, q):
    """Squared distances as one out-of-place whole-table expression, without
    laplab.geometry.

    Torus: wrap minima per axis.
    Sphere: |a x b|^2 as (cx^2 + cy^2) + cz^2 and a . b as (a0 b0 + a1 b1) + a2 b2.
    Chords: (d0^2 + d2^2) + d1^2 [+ d3^2].
    """
    if isinstance(space, TorusMetric):
        du = p[:, 0, None] - q[None, :, 0]
        dv = p[:, 1, None] - q[None, :, 1]
        return _wrap(space.E, du) + _wrap(space.G, dv)
    if isinstance(space, SphereMetric):
        a, b = _embed(UnitSphere(), p), _embed(UnitSphere(), q)
        ab = [[np.multiply.outer(a[:, i], b[:, j]) for j in range(3)] for i in range(3)]
        cross = [ab[i][j] - ab[j][i] for i, j in ((1, 2), (2, 0), (0, 1))]
        norm = np.sqrt((cross[0] ** 2 + cross[1] ** 2) + cross[2] ** 2)
        dot = (ab[0][0] + ab[1][1]) + ab[2][2]
        return (np.arctan2(norm, dot) * space.radius) ** 2
    a, b = _embed(space, p), _embed(space, q)
    sq = [np.subtract.outer(a[:, k], b[:, k]) ** 2 for k in range(a.shape[1])]
    return (sq[0] + sq[2]) + (sq[1] if len(sq) == 3 else sq[1] + sq[3])


def _whole_table_assembly(d2, pw, t):
    """Entries and dead-row count of the in-place passes over one n x n table."""
    w = d2.copy()
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
    return w, dead


def _underflow_warning(dead, t):
    if not dead:
        return None
    return (f"{dead} rows have fully underflowed off-diagonal kernels; "
            f"bandwidth {t} is too small for the grid spacing")


_BIT_CASES = [(case, g, (0.5, 0.05)) for case in sorted(_ASSEMBLY_CASES) for g in (20, 46)]
_BIT_CASES.append(("intrinsic-sphere-r2", 20, (2.0, 1e-3)))


def _bit_case(case):
    if case == "intrinsic-sphere-r2":
        return SphereMetric(2.0), None
    return _ASSEMBLY_CASES[case]


@pytest.mark.parametrize("case, grid, ts", _BIT_CASES)
def test_row_blocks_match_whole_table_builds_bitwise(case, grid, ts):
    # grid 46 leaves block tails (n = 2116 and 2070 are not multiples of 16)
    metric, emb = _bit_case(case)
    rule = build_grid(metric, grid)
    p = normalize_density(CosineBump(0.4, "u"), rule)
    pw = density_values(p, rule.nodes) * rule.weights
    d2 = _whole_table_sq_dist(metric if emb is None else emb, rule.nodes, rule.nodes)
    for t in ts:
        op = assemble_continuous(metric if emb is None else emb, p, rule, t)
        entries, dead = _whole_table_assembly(d2, pw, t)
        assert op.entries.tobytes() == entries.tobytes()
        assert op.warning == _underflow_warning(dead, t)


@pytest.mark.parametrize("case, grid, ts", _BIT_CASES)
def test_pairwise_tables_match_whole_table_builds_bitwise(case, grid, ts):
    metric, emb = _bit_case(case)
    x = build_grid(metric, grid).nodes
    if emb is not None:
        got = ambient_sq_dist(emb, x, x)
    elif isinstance(metric, SphereMetric):
        got = sphere_sq_geodesic(metric.radius, x, x)
    else:
        got = torus_sq_geodesic(metric, x, x)
    want = _whole_table_sq_dist(metric if emb is None else emb, x, x)
    assert got.tobytes() == want.tobytes()
    # a single row and a 17-row block against every node
    space = metric if emb is None else emb
    for lo, hi in ((7, 8), (3, 20)):
        want = _whole_table_sq_dist(space, x[lo:hi], x)
        assert sq_dist(space, x[lo:hi], x).tobytes() == want.tobytes()


def test_underflowing_build_names_its_dead_rows():
    metric = SphereMetric(2.0)
    rule = build_grid(metric, 20)
    p = normalize_density(CosineBump(0.4, "u"), rule)
    pw = density_values(p, rule.nodes) * rule.weights
    d2 = _whole_table_sq_dist(metric, rule.nodes, rule.nodes)
    for t in (1e-4, 3e-5):  # 300 and 340 of the 380 rows underflow
        op = assemble_continuous(metric, p, rule, t)
        entries, dead = _whole_table_assembly(d2, pw, t)
        assert 0 < dead and op.warning == _underflow_warning(dead, t)
        assert op.entries.tobytes() == entries.tobytes()


def test_build_peak_memory_is_about_one_table():
    import tracemalloc

    cases = [(TorusMetric.flat(), CliffordTorus(), 1.15),
             (TorusMetric.flat(), DonutTorus(2.0, 1.0), 1.15),
             (SphereMetric(1.0), UnitSphere(), 1.15),
             (TorusMetric.anisotropic(1.5), None, 1.15),
             (SphereMetric(1.0), None, 1.15)]
    for metric, embedding, bound in cases:
        tracemalloc.start()
        try:
            op, _ = build_operator(metric, CosineBump(0.4, "u"), 32, 0.5, embedding)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * op.n**2, (op.space, peak / (8 * op.n**2))


# --- kernel distances ---------------------------------------------------------


# the (metric, embedding) of each CLI (mode, surface) pair
_CLI_PAIRS = {
    "intrinsic-aniso_torus": (TorusMetric.anisotropic(1.5), None),
    "intrinsic-flat_torus": (TorusMetric.flat(), None),
    "intrinsic-sphere": (SphereMetric(1.0), None),
    "extrinsic-clifford": (TorusMetric.flat(), CliffordTorus()),
    "extrinsic-donut": (TorusMetric.flat(), DonutTorus(2.0, 1.0)),
    "extrinsic-sphere": (SphereMetric(1.0), UnitSphere()),
}


@pytest.mark.parametrize("case", sorted(_CLI_PAIRS))
def test_sq_dist_is_the_kind_table_and_the_space_round_trips(case, tmp_path):
    metric, emb = _CLI_PAIRS[case]
    space = metric if emb is None else emb
    x = build_grid(metric, 8).nodes
    if emb is not None:
        want = ambient_sq_dist(emb, x[:5], x)
    elif isinstance(metric, SphereMetric):
        want = sphere_sq_geodesic(metric.radius, x[:5], x)
    else:
        want = torus_sq_geodesic(metric, x[:5], x)
    assert sq_dist(space, x[:5], x).tobytes() == want.tobytes()
    op, _ = build_operator(metric, UniformDensity(), 8, 0.5, emb)
    assert op.space == space
    path = tmp_path / "op.llop"
    save_operator(op, path)
    assert path.read_bytes()[6] == (0 if emb is None else 1)  # the mode tag
    assert load_operator(path).space == space


def test_intrinsic_pair_differs_but_extrinsic_pair_does_not():
    # flat vs diag(4, 1/4): same volume form, different geodesics.
    flat, aniso = TorusMetric.flat(), TorusMetric.anisotropic(2.0)
    t = 0.5
    ops_int, ops_ext = [], []
    for m in (flat, aniso):
        rule = build_grid(m, 16)
        p = normalize_density(UniformDensity(), rule)
        ops_int.append(assemble_continuous(m, p, rule, t))
        ops_ext.append(assemble_continuous(CliffordTorus(), p, rule, t))
    assert operator_distance(*ops_int) > 1e-3
    assert operator_distance(*ops_ext) <= 1e-14

    # the intrinsic gap is explained by the changed u-axis distance: the
    # (0,0)-(h,0) entry uses d^2 = 4h^2 instead of h^2
    h = 2 * math.pi / 16
    w = h * h
    c = t**-2
    p0 = 1 / (4 * math.pi**2)
    e_flat = c * math.exp(-(h * h) / t) * p0 * w
    e_aniso = c * math.exp(-(4 * h * h) / t) * p0 * w
    gap = abs(e_flat - e_aniso)
    assert gap > 1e-3
    i, j = 0, 16  # nodes (0,0) and (h,0) in row-major u-major order
    assert abs(ops_int[0].entries[i, j] - ops_int[1].entries[i, j]) == pytest.approx(
        gap, rel=1e-12
    )


def test_operator_distance_identical_is_zero():
    op, _, _ = _flat_op(8)
    assert operator_distance(op, op) == 0.0


def test_operator_distance_node_mismatch():
    op1, _, _ = _flat_op(8, 0.5)
    op2, _, _ = _flat_op(16, 0.5)
    with pytest.raises(NodeMismatchError):
        operator_distance(op1, op2)
    op3, _, _ = _flat_op(8, 0.25)
    with pytest.raises(NodeMismatchError):
        operator_distance(op1, op3)


# --- application --------------------------------------------------------------


def test_apply_indicator_reads_off_kernel_column():
    op, rule, p = _flat_op(8, 0.5)
    j = 11
    f = np.zeros(op.n)
    f[j] = 1.0
    out = op.entries @ f
    # off row j the result is L[:, j] = -c W[:, j]
    mask = np.arange(op.n) != j
    assert np.array_equal(out[mask], op.entries[mask, j])


def test_apply_linearity():
    op, rule, _ = _flat_op(8)
    rng = np.random.default_rng(2)
    f, g = rng.normal(size=(2, op.n))
    lhs = op.entries @ (2.5 * f - 1.5 * g)
    rhs = 2.5 * (op.entries @ f) - 1.5 * (op.entries @ g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- pointwise continuous values ----------------------------------------------


def test_continuous_value_matches_dense_row():
    op, rule, p = _flat_op(8, 0.5)
    f = lambda pts: np.cos(pts[:, 0]) + np.sin(pts[:, 1])
    fv = f(rule.nodes)
    for i in (0, 17, 40):
        x = rule.nodes[i:i + 1]
        [val] = continuous_value(TorusMetric.flat(), p, rule, 0.5, f, x)
        dense = float(op.entries[i] @ fv)
        assert val == pytest.approx(dense, abs=1e-12)


# --- discrete operator ----------------------------------------------------------


def test_discrete_constant_is_exactly_zero():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    s = sample_points(p, TorusMetric.flat(), 500, 3)
    [val] = evaluate_discrete(TorusMetric.flat(), s, 0.5, lambda pts: np.ones(len(pts)),
                              np.array([[0.1, 0.2]]))
    assert val == 0.0


def test_discrete_single_coincident_sample():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    s = sample_points(p, TorusMetric.flat(), 1, 3)
    x = s[0:1]
    [val] = evaluate_discrete(TorusMetric.flat(), s, 0.5, lambda pts: np.cos(pts[:, 0]), x)
    assert val == 0.0


def test_discrete_value_near_continuous_value():
    # Monte-Carlo estimate must land within 3 standard errors of the
    # quadrature value computed on a fine reference grid.
    metric = TorusMetric.flat()
    rule = build_grid(metric, 128)
    p = normalize_density(UniformDensity(), rule)
    f = lambda pts: np.cos(pts[:, 0])
    x = np.array([[0.0, 0.0]])
    [ref] = continuous_value(metric, p, rule, 0.5, f, x)

    s = sample_points(p, metric, 100_000, 1234)
    [val] = evaluate_discrete(metric, s, 0.5, f, x)
    # standard error from the empirical variance of the summed terms
    d2 = sq_dist(metric, x, s)[0]
    terms = np.exp(d2 / -0.5) * (f(x)[0] - f(s)) / 0.5**2
    se = float(terms.std(ddof=1) / math.sqrt(len(s)))
    assert abs(val - ref) < 3.0 * se
    assert se < 1e-3


def test_discrete_bandwidth_validation():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    s = sample_points(p, TorusMetric.flat(), 10, 3)
    calls = []
    for t in (-1.0, 0.0, math.nan, 1e-200, 1e160):
        with pytest.raises(InvalidParameterError):
            evaluate_discrete(TorusMetric.flat(), s, t, calls.append, np.array([[0.1, 0.2]]))
    assert calls == []  # refused before f is evaluated


def _evaluate_one(space, pts, t, f, x):
    """The single-point Monte-Carlo evaluator as it stood before it took many
    points: f over the whole cloud and fresh temporaries on every call."""
    p = x[None, :]
    d2 = sq_dist(space, p, pts)[0]
    fx = float(np.asarray(f(p))[0])
    terms = np.exp(d2 / -t) * (fx - np.asarray(f(pts)))
    return float(terms.sum() / (len(pts) * t**2))


@pytest.mark.parametrize("case", ["flat_torus", "sphere", "clifford"])
def test_discrete_many_points_match_single_point_bits(case):
    flat, sphere = TorusMetric.flat(), SphereMetric(1.0)
    metric, space = {
        "flat_torus": (flat, flat),
        "sphere": (sphere, sphere),
        "clifford": (flat, CliffordTorus()),
    }[case]
    p = normalize_density(CosineBump(0.4, "v"), build_grid(metric, 16))
    pts = sample_points(p, metric, 3000, 17)
    gen = np.random.default_rng(5)
    points = np.column_stack([gen.uniform(0.3, 2.8, 8), gen.uniform(0.0, 2 * math.pi, 8)])
    f = lambda pts: np.sin(pts[:, 0]) * np.cos(2.0 * pts[:, 1])
    got = evaluate_discrete(space, pts, 0.3, f, points)
    want = np.array([_evaluate_one(space, pts, 0.3, f, x) for x in points])
    assert got.shape == (8,)
    assert got.tobytes() == want.tobytes()


def test_discrete_evaluates_f_on_the_cloud_once():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    pts = sample_points(p, TorusMetric.flat(), 200, 3)
    sizes = []

    def f(pts):
        sizes.append(len(pts))
        return np.cos(pts[:, 0])

    points = np.array([[0.1 * k, 0.2] for k in range(5)])
    evaluate_discrete(TorusMetric.flat(), pts, 0.5, f, points)
    assert sorted(sizes) == [1] * 5 + [200]


def test_discrete_peak_memory_is_five_rows():
    # f on the cloud, the distance row and the distance block's three scratch
    # rows; the cloud's coordinates are contiguous, so no column is copied
    import tracemalloc

    metric = TorusMetric.flat()
    p = normalize_density(UniformDensity(), build_grid(metric, 16))
    pts = sample_points(p, metric, 64_000, 1234)
    points = np.array([[0.3 * k, 0.7] for k in range(8)])
    tracemalloc.start()
    try:
        evaluate_discrete(metric, pts, 0.5, lambda pts: np.cos(pts[:, 0]), points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = 8 * len(pts)
    assert peak <= 5.25 * row, peak / row


_SPACES = {
    "flat_torus": (TorusMetric.flat(), TorusMetric.flat()),
    "sphere": (SphereMetric(1.0), SphereMetric(1.0)),
    "clifford": (TorusMetric.flat(), CliffordTorus()),
}


@pytest.mark.parametrize("case", sorted(_SPACES))
def test_continuous_value_many_points_match_one_row_calls_bitwise(case):
    metric, space = _SPACES[case]
    rule = build_grid(metric, 16)
    p = normalize_density(CosineBump(0.4, "v"), rule)
    gen = np.random.default_rng(7)
    points = np.column_stack([gen.uniform(0.3, 2.8, 8), gen.uniform(0.0, 2 * math.pi, 8)])
    f = lambda pts: np.sin(pts[:, 0]) * np.cos(2.0 * pts[:, 1])
    got = continuous_value(space, p, rule, 0.3, f, points)
    want = np.concatenate([continuous_value(space, p, rule, 0.3, f, points[i:i + 1])
                           for i in range(len(points))])
    assert got.shape == (8,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("evaluator", ["continuous", "discrete"])
def test_evaluators_reduce_points_as_python_modulo(evaluator):
    # points outside [0, 2 pi) give the bits of the same points reduced by %
    metric = TorusMetric.flat()
    rule = build_grid(metric, 16)
    p = normalize_density(CosineBump(0.4, "u"), rule)
    pts = sample_points(p, metric, 500, 9)
    raw = np.array([[-0.3, 7.1], [1e6, -1e6], [-1e6, 2.0 * math.pi], [-2.0, 13.0]])
    reduced = np.array([[float(x) % (2.0 * math.pi) for x in row] for row in raw])
    f = lambda x: np.cos(x[:, 0]) + np.sin(2.0 * x[:, 1])
    if evaluator == "continuous":
        run = lambda x: continuous_value(metric, p, rule, 0.5, f, x)
    else:
        run = lambda x: evaluate_discrete(metric, pts, 0.5, f, x)
    assert run(raw).tobytes() == run(reduced).tobytes()


# --- serialization --------------------------------------------------------------


def test_operator_round_trip(tmp_path):
    for op, _, _ in (
        _flat_op(8, 0.5),
        _flat_op(8, 0.25, CosineBump(0.5, "u"), TorusMetric.anisotropic(1.5)),
    ):
        path = tmp_path / "op.llop"
        save_operator(op, path)
        back = load_operator(path)
        assert np.array_equal(back.entries, op.entries)
        assert np.array_equal(back.rule.nodes, op.rule.nodes)
        assert back.t == op.t
        assert back.rule.grid_shape == op.rule.grid_shape
        assert back.rule.spacing == op.rule.spacing
        assert back.space == op.space


def test_operator_round_trip_extrinsic_sphere(tmp_path):
    sphere = SphereMetric(1.0)
    rule = build_grid(sphere, 8)
    p = normalize_density(UniformDensity(), rule)
    op = assemble_continuous(UnitSphere(), p, rule, 0.5)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    back = load_operator(path)
    assert np.array_equal(back.entries, op.entries)
    assert back.space == UnitSphere()


# (metric, embedding) and the kind and parameters of the kernel and measure blocks
_GOLDEN_BLOCKS = {
    "torus": (TorusMetric(2, 0, 0.5), None, (0, 2.0, 0.0, 0.5), (0, 2.0, 0.0, 0.5)),
    "sphere": (SphereMetric(2.5), None, (1, 2.5, 0.0, 0.0), (1, 2.5, 0.0, 0.0)),
    "donut": (TorusMetric.flat(), DonutTorus(3, 0.5), (11, 3.0, 0.5, 0.0), (0, 1.0, 0.0, 1.0)),
    "clifford": (TorusMetric.flat(), CliffordTorus(), (10, 0.0, 0.0, 0.0), (0, 1.0, 0.0, 1.0)),
    "unit_sphere": (SphereMetric(1.0), UnitSphere(), (12, 0.0, 0.0, 0.0), (1, 1.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_BLOCKS))
def test_parameter_blocks_are_golden_bytes(tmp_path, case):
    metric, emb, kernel, measure = _GOLDEN_BLOCKS[case]
    op, _ = build_operator(metric, UniformDensity(), 4, 0.5, emb)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    blob = path.read_bytes()
    # header 20 bytes, bandwidth and spacings 24, then two u8 + 3 f64 blocks
    assert blob[44:94] == struct.pack("<Bddd", *kernel) + struct.pack("<Bddd", *measure)
    assert blob[6:8] == bytes([emb is not None, measure[0]])  # mode and chart tags
    back = load_operator(path)
    assert back.space == (metric if emb is None else emb)
    assert back.rule.metric == metric


def test_load_rejects_truncated_file(tmp_path):
    from laplab.errors import MalformedOperatorError

    op, _, _ = _flat_op(8)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(MalformedOperatorError):
        load_operator(path)
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(MalformedOperatorError):
        load_operator(path)


@pytest.mark.parametrize("grid_shape", [(8, 9), (16, 8)])
def test_load_rejects_grid_shape_node_count_mismatch(tmp_path, grid_shape):
    from laplab.errors import MalformedOperatorError

    op, _, _ = _flat_op(8)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    blob = bytearray(path.read_bytes())
    # header: magic(4) version(2) mode(1) chart(1) n(4) nu(4) nv(4)
    blob[12:20] = np.array(grid_shape, dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedOperatorError, match="node count"):
        load_operator(path)


@pytest.mark.parametrize("case", sorted(_CLI_PAIRS))
def test_loaded_rule_is_the_assembled_rule_bitwise(tmp_path, case):
    metric, emb = _CLI_PAIRS[case]
    op, _ = build_operator(metric, CosineBump(0.4, "v"), 8, 0.5, emb)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    back, rule = load_operator(path).rule, op.rule
    assert back.nodes.tobytes() == rule.nodes.tobytes()
    assert back.weights.tobytes() == rule.weights.tobytes()
    assert back.grid_shape == rule.grid_shape
    assert back.spacing == rule.spacing
    assert back.metric == rule.metric


def _save_on_rule(path, metric, nodes, grid_shape, spacing):
    """Assemble and save an operator on a hand-made rule that build_grid never makes."""
    weights = np.full(len(nodes), spacing[0] * spacing[1])
    rule = QuadratureRule(metric, nodes, weights, grid_shape, spacing)
    save_operator(assemble_continuous(metric, normalize_density(UniformDensity(), rule),
                                      rule, 0.5), path)


def test_load_rejects_an_odd_grid(tmp_path):
    from laplab.errors import MalformedOperatorError

    axis = 2 * math.pi * np.arange(5) / 5
    nodes = np.column_stack([np.repeat(axis, 5), np.tile(axis, 5)])
    _save_on_rule(tmp_path / "op.llop", TorusMetric.flat(), nodes, (5, 5), (axis[1], axis[1]))
    with pytest.raises(MalformedOperatorError, match="even"):
        load_operator(tmp_path / "op.llop")


def test_load_rejects_a_one_row_grid_without_building_it(tmp_path, monkeypatch):
    import laplab.operators as operators
    from laplab.errors import MalformedOperatorError

    grid = build_grid(TorusMetric.flat(), 4)
    path = tmp_path / "op.llop"
    _save_on_rule(path, grid.metric, grid.nodes, (1, 16), grid.spacing)
    calls = []
    monkeypatch.setattr(operators, "build_grid", lambda *args: calls.append(args))
    with pytest.raises(MalformedOperatorError, match="1x16"):
        load_operator(path)
    assert calls == []


@pytest.mark.parametrize("tag", [2, 255])
def test_load_rejects_unknown_mode_tag(tmp_path, tag):
    from laplab.errors import MalformedOperatorError

    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    op = assemble_continuous(CliffordTorus(), p, rule, 0.5)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    blob = bytearray(path.read_bytes())
    assert blob[6] == 1  # header: magic(4) version(2) mode(1)
    blob[6] = tag
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedOperatorError, match="mode tag"):
        load_operator(path)


def test_load_matrix_rejects_size_mismatch(tmp_path):
    from laplab.errors import MalformedOperatorError

    path = tmp_path / "m.llmx"
    m = np.ones((3, 4))
    save_matrix([m], path, m.shape)
    blob = path.read_bytes()
    for bad in (blob + b"\0", blob[:-1]):
        path.write_bytes(bad)
        with pytest.raises(MalformedOperatorError, match="header implies"):
            load_matrix(path)


def test_load_matrix_rejects_a_bad_header(tmp_path):
    from laplab.errors import MalformedOperatorError

    path = tmp_path / "m.llmx"
    save_matrix([np.ones((3, 4))], path, (3, 4))
    blob = path.read_bytes()
    for bad, message in ((blob[:13], "truncated in header"),
                         (b"LLOP" + blob[4:], "not a laplab matrix file"),
                         (blob[:4] + b"\x02" + blob[5:], "not a laplab matrix file")):
        path.write_bytes(bad)
        with pytest.raises(MalformedOperatorError, match=message):
            load_matrix(path)


def test_matrix_round_trip(tmp_path):
    m = np.arange(12, dtype=np.float64).reshape(3, 4)
    m[1, 2] = np.nan
    path = tmp_path / "m.llmx"
    save_matrix([m], path, m.shape)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(np.isnan(back), np.isnan(m))
    assert np.array_equal(back[~np.isnan(m)], m[~np.isnan(m)])


# --- parallel assembly: row ranges on threads --------------------------------------

def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(operators, "_cpus", lambda: cpus)


def _spy_ranges(monkeypatch):
    """The (start, stop) row ranges assembly asks the diagonal torus kernel for."""
    ranges, table = [], operators.torus_grid_rows

    def spy(*args):
        rows = table(*args)

        def recorded(start, stop):
            ranges.append((start, stop))  # one append per range, atomic under the GIL
            return rows(start, stop)
        return recorded

    monkeypatch.setattr(operators, "torus_grid_rows", spy)
    return ranges


@pytest.mark.parametrize("grid, cpus, ranges", [
    (32, 8, [(0, 1024)]),  # n <= 1024 starts no thread
    (46, 8, [(0, 1058), (1058, 2116)]),  # at most n // 1024 workers, on no alignment
    (64, 1, [(0, 4096)]),
    (64, 2, [(0, 2048), (2048, 4096)]),
    (64, 3, [(0, 1365), (1365, 2730), (2730, 4096)]),
    (64, 8, [(0, 1024), (1024, 2048), (2048, 3072), (3072, 4096)]),
])
def test_rows_split_into_even_ranges(monkeypatch, grid, cpus, ranges):
    _force_cpus(monkeypatch, cpus)
    seen = _spy_ranges(monkeypatch)
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", spy)
        build_operator(TorusMetric.flat(), UniformDensity(), grid, 0.5)
    assert sorted(seen) == ranges and len(started) == len(ranges) - 1
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("grid", [46, 64])
@pytest.mark.parametrize("case", sorted(_CLI_PAIRS))
def test_bits_do_not_depend_on_the_worker_count(monkeypatch, case, grid):
    # 1, 2, 3 and 8 CPUs make 1 to 4 ranges at grid 64 and 1 or 2 at grid 46,
    # where the sphere's n = 2070 is not a multiple of 16; grid 32
    # takes one range whatever the count (see above).  Each count is built once.
    metric, emb = _CLI_PAIRS[case]
    rule = build_grid(metric, grid)
    p = normalize_density(CosineBump(0.4, "u"), rule)
    space = metric if emb is None else emb
    counts = sorted({min(cpus, rule.n // 1024) for cpus in (1, 2, 3, 8)})
    for t in (0.5, 0.01):
        ref = None
        for count in counts:
            _force_cpus(monkeypatch, count)
            op = assemble_continuous(space, p, rule, t)
            if ref is None:
                ref = op
            else:
                assert np.array_equal(op.entries.view(np.uint64), ref.entries.view(np.uint64))
                assert op.warning == ref.warning
            del op


def test_a_failing_range_raises_after_every_range_stopped(monkeypatch):
    class Boom(Exception):
        pass

    kernel = geometry._ambient_rows

    def failing(*args):
        rows = kernel(*args)

        def ranges(start, stop):
            if start > 0:  # the second range, on a worker thread
                raise Boom(start)
            return rows(start, stop)
        return ranges

    monkeypatch.setattr(geometry, "_ambient_rows", failing)
    _force_cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(Boom, match="^1058$"):
        build_operator(TorusMetric.flat(), UniformDensity(), 46, 0.5, DonutTorus(2.0, 1.0))
    assert threading.active_count() == before


def test_overflowing_quotient_on_a_worker_range_warns_nothing(monkeypatch):
    # squared distance / t overflows at this radius on every range; each worker
    # ignores it as the caller's thread does, and the dead rows add up
    warned = []
    for cpus in (1, 2):
        _force_cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op, _ = build_operator(SphereMetric(3.7e153), UniformDensity(), 46, 0.5)
        warned += [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert op.warning == _underflow_warning(op.n, 0.5)
    assert warned == []


def test_ranges_switching_every_microsecond_lose_no_dead_row(monkeypatch):
    # three ranges on two cores, the interpreter lock handed over as often as
    # it can be: every row of this radius is dead, so a lost count shows
    _force_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        op, _ = build_operator(SphereMetric(3.7e153), UniformDensity(), 64, 0.5)
    finally:
        sys.setswitchinterval(interval)
    assert op.n // 1024 == 3 and op.warning == _underflow_warning(op.n, 0.5)


def test_threaded_build_peak_memory_is_within_its_bound(monkeypatch):
    import tracemalloc

    _force_cpus(monkeypatch, 2)
    tracemalloc.start()
    try:
        op, _ = build_operator(SphereMetric(1.0), CosineBump(0.4, "u"), 46, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 8 * op.n**2, peak / (8 * op.n**2)


# --- recovery's distance stream: upper strips on threads -----------------------------


def _clear(path):
    """Delete what a test wrote in path: the suite's kept temporary
    directories would otherwise hold gigabytes of grid-64 matrices."""
    shutil.rmtree(path)
    path.mkdir()


def _externalized_recovery(tmp_path, op_path):
    """SHA-256 of the report and of both .llmx files of recover --externalize,
    which are deleted once hashed."""
    ext, out = tmp_path / "mx", tmp_path / "r.json"
    assert main(["recover", "--operator", str(op_path), "--out", str(out),
                 "--externalize", str(ext)]) == 0
    paths = [out] + [ext / f"recovery_{name}.llmx" for name in ("kernel", "distance")]
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
    shutil.rmtree(ext)
    out.unlink()
    return digests


@pytest.mark.parametrize("grid", [46, 64])
@pytest.mark.parametrize("case", sorted(_CLI_PAIRS))
def test_recovery_stream_bits_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, capsys,
                                                                 case, grid):
    # 1, 2, 3 and 8 CPUs keep 1 to 4 strips in flight at grid 64 and 1 or 2
    # at grid 46, whose sphere (n = 2070) ends in a partial tile
    metric, emb = _CLI_PAIRS[case]
    op, _ = build_operator(metric, CosineBump(0.4, "u"), grid, 0.5, emb)
    op_path = tmp_path / "op.llop"
    save_operator(op, op_path)
    counts = sorted({min(cpus, op.n // 1024) for cpus in (1, 2, 3, 8)})
    del op
    ref = None
    for count in counts:
        _force_cpus(monkeypatch, count)
        files = _externalized_recovery(tmp_path, op_path)
        if ref is None:
            ref = files
        else:
            assert files == ref, count
    op_path.unlink()
    capsys.readouterr()


def test_recovery_at_grid_32_starts_no_thread(monkeypatch, tmp_path, capsys):
    _force_cpus(monkeypatch, 8)
    # n = 1024, the most rows that one thread takes
    op, _ = build_operator(TorusMetric.flat(), CosineBump(0.4, "u"), 32, 0.5, DonutTorus(2.0, 1.0))
    op_path = tmp_path / "op.llop"
    save_operator(op, op_path)
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", spy)
        _externalized_recovery(tmp_path, op_path)
    assert op.n == 1024 and started == []
    capsys.readouterr()


def test_a_failing_strip_raises_in_row_order_after_every_strip_stopped(monkeypatch):
    # strips 2 and 3 raise, and strip 2 waits until strip 3 has: the first
    # failure in row order is not the first in time
    class Boom(Exception):
        pass

    op, _ = build_operator(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), 64, 0.5)
    report = identify.run_recovery(op)
    one_way, later_failed = identify._one_way, threading.Event()

    def failing(w, m, sym, t):
        a = (op.n - max(w.shape)) // 64  # strip a maps n - 64 a columns, then rows
        if a == 2:
            assert later_failed.wait(10)
        if a in (2, 3):
            later_failed.set()
            raise Boom(a)
        return one_way(w, m, sym, t)

    monkeypatch.setattr(identify, "_one_way", failing)
    _force_cpus(monkeypatch, 4)
    before = threading.active_count()
    blocks = []
    with pytest.raises(Boom, match="^2$"):
        for r, _ in identify._distance_rows(report.wk, report.mass):
            blocks.append(r.start)
    assert blocks == [0, 64] and threading.active_count() == before


def test_failed_strip_leaves_both_out_directories_as_they_were(monkeypatch, tmp_path, capsys):
    from laplab.errors import InconsistencyError

    op, _ = build_operator(TorusMetric.flat(), CosineBump(0.4, "u"), 46, 0.5, DonutTorus(2.0, 1.0))
    op_path, ext, out = tmp_path / "op.llop", tmp_path / "ext", tmp_path / "out"
    save_operator(op, op_path)
    names = ["recovery_distance.llmx", "recovery_kernel.llmx"]
    ext.mkdir()
    for name in names:
        (ext / name).write_bytes(b"old")
    _force_cpus(monkeypatch, 2)
    one_way = identify._one_way

    def failing(w, m, sym, t):
        if w.ndim == 2 and max(w.shape) == op.n - 128:  # the third strip
            raise InconsistencyError("strip 2 failed")
        return one_way(w, m, sym, t)

    monkeypatch.setattr(identify, "_one_way", failing)
    before = threading.active_count()
    assert main(["recover", "--operator", str(op_path), "--out", str(out / "r.json"),
                 "--externalize", str(ext)]) == 3
    assert capsys.readouterr().err == "numerical failure: strip 2 failed\n"
    assert threading.active_count() == before
    assert sorted(os.listdir(tmp_path)) == ["ext", "op.llop"]
    assert sorted(os.listdir(ext)) == names
    assert all((ext / name).read_bytes() == b"old" for name in names)


def test_a_stream_closed_mid_way_stops_its_threads(monkeypatch, tmp_path):
    # the distance file's writer fails after three blocks: the stream is
    # closed at once, not when the traceback that holds it goes, and the
    # strips computed ahead of it finish with the pool's threads
    op, _ = build_operator(SphereMetric(1.0), CosineBump(0.4, "u"), 64, 0.5)
    report = identify.run_recovery(op)
    _force_cpus(monkeypatch, 4)

    def failing_save(blocks, path, shape):
        for i, _ in enumerate(blocks):
            if "distance" in str(path) and i == 2:
                raise OSError("No space left on device")

    monkeypatch.setattr(identify, "save_matrix", failing_save)
    before = threading.active_count()
    with pytest.raises(OSError) as caught:
        identify.report_payload(report, externalize_dir=tmp_path)
    assert threading.active_count() == before
    assert str(caught.value) == "No space left on device"
    _clear(tmp_path)


# a child process installs the benchmark's tracer, which rebinds laplab's
# public functions, so no other test sees the wrapped package
_TRACED = r"""
import importlib.util, json, sys

import laplab
import laplab.operators

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
laplab.operators._cpus = lambda: 2
tracer = tracing.Tracer()
tracer.install(laplab)
import laplab.cli

for argv in json.loads(sys.argv[2]):
    code = laplab.cli.main(argv)
    assert code == 0, code
with open("spans.json", "w") as fh:
    json.dump(tracer.spans, fh)
tracing.summarize(tracer.spans)
print("summarized")
"""


def _traced_spans(tmp_path, *commands):
    """Span names and each span's names above it, for CLI commands run in
    tmp_path under the benchmark's tracer with two CPUs; no span may have a
    parent cycle, and the spans must summarize."""
    root = pathlib.Path(__file__).parents[1]
    src = os.path.dirname(os.path.dirname(operators.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _TRACED, str(root / "perfbench" / "tracing.py"),
             json.dumps(commands)], capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=120)
        summarized = proc.stdout.endswith("\nsummarized\n")
        assert proc.returncode == 0, proc.stderr
    except subprocess.TimeoutExpired:
        summarized = False
    spans = json.loads((tmp_path / "spans.json").read_text())
    _clear(tmp_path)
    parent = {span[0]: span[1] for span in spans}
    names, above = [span[2] for span in spans], {}
    for sid in parent:  # a parent cycle would revisit a span on the way up
        seen, up = set(), parent[sid]
        while up >= 0:
            assert up not in seen, f"span {sid} has a parent cycle"
            seen.add(up)
            up = parent[up]
        above[sid] = {names[up] for up in seen}
    assert summarized
    return names, above


def test_traced_threaded_builds_keep_one_span_tree(tmp_path):
    names, above = _traced_spans(tmp_path, *(
        ["assemble", "--grid", "46", *args, "--out", "x.llop"]
        for args in (["--metric", "sphere:1.0"],
                     ["--mode", "extrinsic", "--embedding", "donut:2:1"],
                     ["--metric", "aniso:1.5"])))
    assert names.count("geometry.embed_many") == 4 and "geometry.torus_grid_rows" in names
    for sid, name in enumerate(names):
        if name.startswith("geometry."):
            assert "operators.assemble_continuous" in above[sid], name


def test_traced_threaded_recovery_keeps_one_span_tree(tmp_path):
    # the distance stream's strips run on the pool and call no traced function
    names, above = _traced_spans(
        tmp_path, ["assemble", "--grid", "64", "--metric", "aniso:1.5", "--out", "x.llop"],
        ["recover", "--operator", "x.llop", "--out", "r.json", "--externalize", "mx"])
    assert names.count("operators.save_matrix") == 2
    for sid, name in enumerate(names):
        if name == "operators.save_matrix":
            assert "identify.report_payload" in above[sid]
