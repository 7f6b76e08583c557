"""Operator assembly, application, Monte-Carlo evaluation, serialization.

The central oracle: every matrix entry has the closed form
c * exp(-dist^2/t) * p(x_j) * w_j off the diagonal, c = t^(-2), and the
diagonal makes rows sum to zero.  Tests recompute entries by hand from
that formula and from hand-evaluated distances.
"""

import math

import numpy as np
import pytest

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
    ChartPoint,
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
)
from laplab.operators import (
    DENSE_NODE_CAP,
    DiscreteOperator,
    ExtrinsicKernel,
    IntrinsicKernel,
    apply_operator,
    assemble_continuous,
    continuous_value,
    evaluate_discrete,
    kernel_sq_dist,
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
    return assemble_continuous(IntrinsicKernel(metric), p, rule, t), rule, p


# --- row sums and signs -------------------------------------------------------


@pytest.mark.parametrize("t", [2.0**-k for k in range(0, 7)])
def test_rows_annihilate_constants_across_bandwidths(t):
    op, _, _ = _flat_op(8, t)
    ones = np.ones(op.n)
    assert np.max(np.abs(apply_operator(op, ones))) <= 1e-12


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
            cases.append(assemble_continuous(IntrinsicKernel(metric), p, rule, 0.5))
            cases.append(assemble_continuous(ExtrinsicKernel(emb), p, rule, 0.5))
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
            assemble_continuous(IntrinsicKernel(TorusMetric.flat()), p, rule, t)
    big = build_grid(TorusMetric.flat(), 66)  # 4356 nodes > cap
    assert big.n > DENSE_NODE_CAP
    pb = normalize_density(UniformDensity(), big)
    with pytest.raises(InvalidParameterError):
        assemble_continuous(IntrinsicKernel(TorusMetric.flat()), pb, big, 0.5)


def test_underflow_sets_warning():
    op, _, _ = _flat_op(8, 1e-4)
    assert op.warning.startswith("64 rows have fully underflowed")
    assert _flat_op(8, 0.5)[0].warning is None


def _reference_entries(mode, density, rule, t):
    """The assembly pipeline written out of place, one step at a time."""
    pw = density_values(density, rule.nodes) * rule.weights
    w = np.exp(kernel_sq_dist(mode, rule.nodes, rule.nodes) / -t) * pw[None, :]
    c = t ** -2.0
    entries = -c * w
    np.fill_diagonal(entries, c * (w.sum(axis=1) - np.diagonal(w)))
    return entries


_ASSEMBLY_CASES = {
    "intrinsic-aniso": (TorusMetric.anisotropic(1.5), None),
    "intrinsic-flat": (TorusMetric.flat(), None),
    "intrinsic-scaled": (TorusMetric.scaled_flat(1.7), None),
    "intrinsic-sphere": (SphereMetric(1.0), None),
    "intrinsic-coupled": (TorusMetric(2.0, 0.7, 1.0), None),
    "extrinsic-clifford": (TorusMetric.flat(), CliffordTorus()),
    "extrinsic-donut": (TorusMetric.flat(), DonutTorus(2.0, 1.0)),
    "extrinsic-sphere": (SphereMetric(1.0), UnitSphere()),
}


@pytest.mark.parametrize("case", sorted(_ASSEMBLY_CASES))
def test_assembly_is_bitwise_reference_pipeline(case):
    metric, emb = _ASSEMBLY_CASES[case]
    mode = IntrinsicKernel(metric) if emb is None else ExtrinsicKernel(emb)
    rule = build_grid(metric, 16)
    p = normalize_density(CosineBump(0.4, "u"), rule)
    for t in (0.5, 0.05):
        op = assemble_continuous(mode, p, rule, t)
        assert np.array_equal(op.entries, _reference_entries(mode, p, rule, t))


def test_non_grid_nodes_take_the_pairwise_path(monkeypatch):
    import laplab.operators as operators

    calls = []
    table = operators.torus_grid_sq_geodesic

    def spy(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(operators, "torus_grid_sq_geodesic", spy)
    metric = TorusMetric.anisotropic(2.0)
    mode = IntrinsicKernel(metric)
    grid = build_grid(metric, 8)
    nudged = grid.nodes.copy()
    nudged[9, 1] = np.nextafter(nudged[9, 1], 1.0)
    perm = np.random.default_rng(3).permutation(grid.n)
    for nodes, weights in ((grid.nodes, grid.weights),
                           (grid.nodes[perm], grid.weights[perm]),
                           (nudged, grid.weights)):
        rule = QuadratureRule(metric, nodes, weights, grid.grid_shape, grid.spacing)
        p = normalize_density(CosineBump(0.4, "v"), rule)
        op = assemble_continuous(mode, p, rule, 0.5)
        assert np.array_equal(op.entries, _reference_entries(mode, p, rule, 0.5))
    assert len(calls) == 1


# --- kernel distances ---------------------------------------------------------


def test_kernel_sq_dist_dispatch():
    pts = np.array([[0.0, 0.0], [math.pi, 0.0]])
    d2_int = kernel_sq_dist(IntrinsicKernel(TorusMetric.flat()), pts, pts)
    assert d2_int[0, 1] == pytest.approx(math.pi**2, abs=1e-12)
    d2_ext = kernel_sq_dist(ExtrinsicKernel(CliffordTorus()), pts, pts)
    assert d2_ext[0, 1] == pytest.approx(4.0, abs=1e-12)


def test_intrinsic_pair_differs_but_extrinsic_pair_does_not():
    # flat vs diag(4, 1/4): same volume form, different geodesics.
    flat, aniso = TorusMetric.flat(), TorusMetric.anisotropic(2.0)
    t = 0.5
    ops_int, ops_ext = [], []
    for m in (flat, aniso):
        rule = build_grid(m, 16)
        p = normalize_density(UniformDensity(), rule)
        ops_int.append(assemble_continuous(IntrinsicKernel(m), p, rule, t))
        ops_ext.append(assemble_continuous(ExtrinsicKernel(CliffordTorus()), p, rule, t))
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
    out = apply_operator(op, f)
    # off row j the result is L[:, j] = -c W[:, j]
    mask = np.arange(op.n) != j
    assert np.array_equal(out[mask], op.entries[mask, j])


def test_apply_linearity():
    op, rule, _ = _flat_op(8)
    rng = np.random.default_rng(2)
    f, g = rng.normal(size=(2, op.n))
    lhs = apply_operator(op, 2.5 * f - 1.5 * g)
    rhs = 2.5 * apply_operator(op, f) - 1.5 * apply_operator(op, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_shape_check():
    op, _, _ = _flat_op(8)
    with pytest.raises(InvalidParameterError):
        apply_operator(op, np.ones(op.n + 1))


# --- pointwise continuous values ----------------------------------------------


def test_continuous_value_matches_dense_row():
    op, rule, p = _flat_op(8, 0.5)
    mode = IntrinsicKernel(TorusMetric.flat())
    f = lambda pts: np.cos(pts[:, 0]) + np.sin(pts[:, 1])
    fv = f(rule.nodes)
    for i in (0, 17, 40):
        x = ChartPoint(rule.nodes[i, 0], rule.nodes[i, 1])
        val = continuous_value(mode, p, rule, 0.5, f, x)
        dense = float(op.entries[i] @ fv)
        assert val == pytest.approx(dense, abs=1e-12)


# --- discrete operator ----------------------------------------------------------


def test_discrete_constant_is_exactly_zero():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    s = sample_points(p, TorusMetric.flat(), 500, 3)
    dop = DiscreteOperator(s, 0.5, IntrinsicKernel(TorusMetric.flat()))
    val = evaluate_discrete(dop, lambda pts: np.ones(len(pts)), ChartPoint(0.1, 0.2))
    assert val == 0.0


def test_discrete_single_coincident_sample():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    s = sample_points(p, TorusMetric.flat(), 1, 3)
    dop = DiscreteOperator(s, 0.5, IntrinsicKernel(TorusMetric.flat()))
    x = ChartPoint(s.points[0, 0], s.points[0, 1])
    val = evaluate_discrete(dop, lambda pts: np.cos(pts[:, 0]), x)
    assert val == 0.0


def test_discrete_value_near_continuous_value():
    # Monte-Carlo estimate must land within 3 standard errors of the
    # quadrature value computed on a fine reference grid.
    metric = TorusMetric.flat()
    rule = build_grid(metric, 128)
    p = normalize_density(UniformDensity(), rule)
    f = lambda pts: np.cos(pts[:, 0])
    x = ChartPoint(0.0, 0.0)
    ref = continuous_value(IntrinsicKernel(metric), p, rule, 0.5, f, x)

    s = sample_points(p, metric, 100_000, 1234)
    dop = DiscreteOperator(s, 0.5, IntrinsicKernel(metric))
    val = evaluate_discrete(dop, f, x)
    # standard error from the empirical variance of the summed terms
    d2 = kernel_sq_dist(dop.mode, x.as_array()[None, :], s.points)[0]
    terms = np.exp(d2 / -dop.t) * (f(x.as_array()[None, :])[0] - f(s.points)) / dop.t**2
    se = float(terms.std(ddof=1) / math.sqrt(s.n))
    assert abs(val - ref) < 3.0 * se
    assert se < 1e-3


def test_discrete_bandwidth_validation():
    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    s = sample_points(p, TorusMetric.flat(), 10, 3)
    with pytest.raises(InvalidParameterError):
        DiscreteOperator(s, -1.0, IntrinsicKernel(TorusMetric.flat()))


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
        assert np.array_equal(back.nodes, op.nodes)
        assert back.t == op.t
        assert back.grid_shape == op.grid_shape
        assert back.spacing == op.spacing
        assert type(back.mode) is type(op.mode)


def test_operator_round_trip_extrinsic_sphere(tmp_path):
    sphere = SphereMetric(1.0)
    rule = build_grid(sphere, 8)
    p = normalize_density(UniformDensity(), rule)
    op = assemble_continuous(ExtrinsicKernel(UnitSphere()), p, rule, 0.5)
    path = tmp_path / "op.llop"
    save_operator(op, path)
    back = load_operator(path)
    assert np.array_equal(back.entries, op.entries)
    assert isinstance(back.mode, ExtrinsicKernel)


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


@pytest.mark.parametrize("tag", [2, 255])
def test_load_rejects_unknown_mode_tag(tmp_path, tag):
    from laplab.errors import MalformedOperatorError

    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(UniformDensity(), rule)
    op = assemble_continuous(ExtrinsicKernel(CliffordTorus()), p, rule, 0.5)
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
    save_matrix(np.ones((3, 4)), path)
    blob = path.read_bytes()
    for bad in (blob + b"\0", blob[:-1]):
        path.write_bytes(bad)
        with pytest.raises(MalformedOperatorError, match="header implies"):
            load_matrix(path)


def test_matrix_round_trip(tmp_path):
    m = np.arange(12, dtype=np.float64).reshape(3, 4)
    m[1, 2] = np.nan
    path = tmp_path / "m.llmx"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(np.isnan(back), np.isnan(m))
    assert np.array_equal(back[~np.isnan(m)], m[~np.isnan(m)])
