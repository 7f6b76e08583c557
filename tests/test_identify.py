"""Inverse pipeline: operator -> masses -> kernel -> distances -> metric
-> density.

Forward assembly is the oracle throughout: every recovered quantity is
compared against the closed-form inputs the operator was built from.
"""

import dataclasses
import importlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laplab.discretization import (
    CosineBump,
    UniformDensity,
    build_grid,
    density_values,
)
from laplab.errors import (
    ConditioningError,
    InconsistencyError,
    InsufficientMaskError,
    MalformedOperatorError,
    UnrecoverableMassError,
)
from laplab.geometry import (
    CliffordTorus,
    DonutTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    ambient_sq_dist,
    sq_dist,
)
from laplab.identify import (
    EDGE_THRESHOLD,
    KERNEL_SLACK,
    extract_weighted_kernel,
    metric_field_from_distance,
    recover_density,
    recover_kernel_distance,
    recover_mass,
    run_recovery,
)
from laplab.operators import assemble_continuous, save_matrix
from laplab.verify import write_json

FOUR_PI_SQ = 4 * math.pi**2


def _op(metric=None, density=None, n=16, t=0.5, embedding=None):
    metric = metric or TorusMetric.flat()
    rule = build_grid(metric, n)
    p = density or UniformDensity()
    return assemble_continuous(embedding or metric, p, rule, t), rule, p


def _reference_w(op):
    """Reference W: the whole operator scaled at once, NaN on the diagonal,
    tiny negative weights clipped to 0."""
    w = op.entries * (-op.t**2)
    np.fill_diagonal(w, np.nan)
    w[w < 0.0] = 0.0
    return w


# --- kernel extraction --------------------------------------------------------


def test_extracted_kernel_matches_forward_construction():
    op, rule, p = _op(TorusMetric.anisotropic(1.5), CosineBump(0.3, "u"))
    wk = extract_weighted_kernel(op)
    d2 = sq_dist(TorusMetric.anisotropic(1.5), rule.nodes, rule.nodes)
    w_direct = np.exp(-d2 / op.t) * (density_values(p, rule) * rule.weights)[None, :]
    diff = np.abs(_reference_w(op) - w_direct)[wk.mask]
    assert float(diff.max()) <= 1e-12


def test_extracted_diagonal_is_nan():
    op, _, _ = _op()
    wk = extract_weighted_kernel(op)
    assert np.all(np.isnan(np.diag(_reference_w(op))))
    assert not np.any(np.diag(wk.mask))


def test_extract_rejects_broken_row_sums():
    op, _, _ = _op()
    bad = op.entries.copy()
    bad[3, 5] += 1e-6
    op2 = dataclasses.replace(op, entries=bad)
    with pytest.raises(MalformedOperatorError):
        extract_weighted_kernel(op2)


def test_extract_rejects_positive_off_diagonal():
    op, _, _ = _op()
    bad = op.entries.copy()
    # flip one kernel weight's sign, repair the row sum on the diagonal
    bad[3, 5] = -bad[3, 5]
    bad[3, 3] -= 2 * bad[3, 5]
    op2 = dataclasses.replace(op, entries=bad)
    with pytest.raises(MalformedOperatorError):
        extract_weighted_kernel(op2)


def test_extract_rejects_non_finite_entry():
    op, _, _ = _op(n=8)
    bad = op.entries.copy()
    bad[3, 5] = np.nan
    op2 = dataclasses.replace(op, entries=bad)
    with pytest.raises(MalformedOperatorError, match="non-finite"):
        extract_weighted_kernel(op2)
    with pytest.raises(MalformedOperatorError, match="non-finite"):
        run_recovery(op2)


def test_extract_rejects_all_zero_row():
    op, _, _ = _op()
    bad = op.entries.copy()
    bad[7, :] = 0.0
    op2 = dataclasses.replace(op, entries=bad)
    with pytest.raises(MalformedOperatorError, match="all-zero kernel row"):
        extract_weighted_kernel(op2)


def test_extraction_checks_raise_in_order_across_row_blocks():
    # n = 240: row blocks of 64, 64, 64 and 48 rows
    op = _case_op("intrinsic-sphere", 16)
    assert op.n % 64 != 0
    bad = op.entries.copy()
    bad[5] = 0.0  # an all-zero row in block 0
    # positive off-diagonal entries in block 0 and in the last block, rows
    # rebalanced on the diagonal; the last block's gives the smallest weight
    for i, j, value in ((10, 11, 1e-12), (230, 231, -bad[230, 231])):
        bad[i, i] += bad[i, j] - value
        bad[i, j] = value
    w = bad * (-op.t**2)
    np.fill_diagonal(w, np.nan)
    low = np.nanmin(w)
    assert np.unravel_index(np.nanargmin(w), w.shape)[0] >= 192
    with pytest.raises(MalformedOperatorError, match=re.escape(f"kernel weight {low:.3e} < 0")):
        extract_weighted_kernel(dataclasses.replace(op, entries=bad))
    bad[235, 7] = np.nan  # only the last block holds a non-finite entry
    with pytest.raises(MalformedOperatorError, match="non-finite"):
        extract_weighted_kernel(dataclasses.replace(op, entries=bad))


def test_extract_clips_tiny_negative_weight():
    op, _, _ = _op(n=8)
    bad = op.entries.copy()
    # an operator entry just above zero is a kernel weight just below zero,
    # inside the rounding tolerance; the diagonal keeps the row sum at zero
    tiny = 5e-15 / op.t**2
    bad[3, 3] += bad[3, 5] - tiny
    bad[3, 5] = tiny
    op2 = dataclasses.replace(op, entries=bad)
    wk = extract_weighted_kernel(op2)
    w = _reference_w(op2)
    assert w[3, 5] == 0.0
    assert not wk.mask[3, 5]
    assert wk.mask[5, 3]
    off = ~np.eye(wk.n, dtype=bool)
    assert np.all(w[off] >= 0.0)
    # the accessor reads the same bits off the operator, clipped zero included
    assert wk.w(off).tobytes() == w[off].tobytes()


# --- mass recovery --------------------------------------------------------------


def test_uniform_masses_are_equal():
    op, _, _ = _op(n=16)
    m = recover_mass(extract_weighted_kernel(op))
    assert np.max(np.abs(m - 1 / 256)) < 1e-10


def test_bump_masses_match_density_times_weights():
    op, rule, p = _op(density=CosineBump(0.5, "u"), n=32)
    m = recover_mass(extract_weighted_kernel(op))
    truth = density_values(p, rule) * rule.weights
    assert np.max(np.abs(m - truth) / truth) <= 1e-8


def test_refined_masses_agree_with_tree_masses():
    op, rule, p = _op(density=CosineBump(0.5, "u"), n=16)
    wk = extract_weighted_kernel(op)
    m_tree = recover_mass(wk)
    m_ls = recover_mass(wk, refine=True)
    assert np.max(np.abs(m_tree - m_ls)) < 1e-10


def test_refined_masses_beat_tree_masses_under_noise():
    # relative noise 1e-8 on the off-diagonal entries, rows rebalanced: the
    # least-squares fit averages every edge ratio, the tree compounds its
    # path's (measured 3.4e-9 against 5.1e-8)
    metric = TorusMetric.anisotropic(1.5)
    op, rule, p = _op(metric, CosineBump(0.4, "u"), n=16)
    noisy = op.entries * (1.0 + 1e-8 * np.random.default_rng(7).standard_normal(op.entries.shape))
    np.fill_diagonal(noisy, 0.0)
    np.fill_diagonal(noisy, -noisy.sum(axis=1))
    wk = extract_weighted_kernel(dataclasses.replace(op, entries=noisy))
    truth = density_values(p, rule) * rule.weights
    truth /= truth.sum()
    tree_err = np.max(np.abs(recover_mass(wk) - truth) / truth)
    ls_err = np.max(np.abs(recover_mass(wk, refine=True) - truth) / truth)
    assert ls_err <= tree_err / 5


def test_refined_masses_match_whole_array_solve_bitwise():
    op, _, _ = _op(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), n=16)
    wk = extract_weighted_kernel(op)
    sym, n = wk.mask & wk.mask.T, wk.n
    # reference: the normal equations built over whole n x n arrays
    logw = np.log(np.where(sym, _reference_w(op), 1.0))
    ratio = logw - logw.T
    lap = np.diag(sym.sum(axis=1).astype(np.float64)) - sym.astype(np.float64)
    lap += 1.0 / n
    logm = np.linalg.solve(lap, ratio.sum(axis=0))
    m = np.exp(logm - logm.max())
    assert _same_bits(recover_mass(wk, refine=True), m / m.sum())


def test_refined_mass_peak_memory_is_two_matrices():
    op, rule, _ = _op(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), n=32)
    wk = extract_weighted_kernel(op)
    tracemalloc.start()
    try:
        recover_mass(wk, refine=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # log W and its antisymmetric part, then the Laplacian; never all three
    assert peak <= 3.0 * 8 * rule.n**2


def test_mass_does_not_depend_on_kernel_mode():
    # masses are p(x_j) w_j; the space the kernel measures in only changes distances
    metric = TorusMetric.flat()
    m_int = recover_mass(extract_weighted_kernel(
        _op(metric, CosineBump(0.5, "u"))[0]))
    m_ext = recover_mass(extract_weighted_kernel(
        _op(metric, CosineBump(0.5, "u"), embedding=CliffordTorus())[0]))
    assert np.max(np.abs(m_int - m_ext)) <= 1e-8


def test_disconnected_graph_raises():
    op, _, _ = _op(n=8)
    wk = extract_weighted_kernel(op)
    # W = 0 between node 0 and every other node, both ways
    cut = op.entries.copy()
    cut[0, 1:] = 0.0
    cut[1:, 0] = 0.0
    wk2 = dataclasses.replace(wk, entries=cut)
    with pytest.raises(UnrecoverableMassError):
        recover_mass(wk2)


# --- kernel and distance ---------------------------------------------------------


def test_recovered_distances_match_geodesics():
    metric = TorusMetric.anisotropic(2.0)
    op, rule, _ = _op(metric)
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    khat, dhat = recover_kernel_distance(wk, m)
    d_true = np.sqrt(sq_dist(metric, rule.nodes, rule.nodes))
    sym = wk.mask & wk.mask.T
    assert float(np.max(np.abs(dhat[sym] - d_true[sym]))) <= 1e-7
    assert np.all(np.diag(khat) == 1.0)
    assert np.all(np.diag(dhat) == 0.0)


def test_recovered_distances_match_chords_for_extrinsic():
    emb = CliffordTorus()
    op, rule, _ = _op(embedding=emb)
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    _, dhat = recover_kernel_distance(wk, m)
    d_true = np.sqrt(ambient_sq_dist(emb, rule.nodes, rule.nodes))
    sym = wk.mask & wk.mask.T
    assert float(np.max(np.abs(dhat[sym] - d_true[sym]))) <= 1e-7


def test_distance_error_stays_below_roundoff_amplification():
    # log/exp round trip: sigma error ~ eps * t * |log K|; require
    # the recovered sigma to sit within sqrt(eps)*t of truth everywhere
    metric = TorusMetric.flat()
    op, rule, _ = _op(metric, t=0.25)
    wk = extract_weighted_kernel(op)
    _, dhat = recover_kernel_distance(wk, recover_mass(wk))
    d_true = np.sqrt(sq_dist(metric, rule.nodes, rule.nodes))
    sym = wk.mask & wk.mask.T
    bound = math.sqrt(np.finfo(float).eps) * 0.25
    assert float(np.max(np.abs(dhat[sym] ** 2 - d_true[sym] ** 2))) <= bound


def test_inflated_kernel_value_raises():
    op, _, _ = _op(n=8)
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    with pytest.raises(InconsistencyError):
        recover_kernel_distance(wk, m * 0.2)  # masses too small -> K > 1


def test_kernel_value_within_slack_is_clamped_to_one():
    op, _, _ = _op(n=8)
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    i, j = np.argwhere(wk.mask & wk.mask.T)[0]
    entries = op.entries.copy()
    # W_ij = -t^2 L_ij, so K_ij sits just above 1, inside KERNEL_SLACK
    entries[i, j] = m[j] * (1.0 + 1e-9) / (-op.t**2)
    khat, _ = recover_kernel_distance(dataclasses.replace(wk, entries=entries), m)
    assert khat[i, j] == 1.0
    assert khat[wk.mask].max() <= 1.0


# --- metric stencil ---------------------------------------------------------------


def test_stencil_exact_on_anisotropic_sigma():
    metric = TorusMetric.anisotropic(2.0)
    rule = build_grid(metric, 16)
    dist = np.sqrt(sq_dist(metric, rule.nodes, rule.nodes))
    fld = metric_field_from_distance(dist, rule)
    g = fld.tensor_at(5 * 16 + 3)
    assert np.max(np.abs(g - np.diag([4.0, 0.25]))) <= 1e-10


def test_stencil_exact_on_flat_sigma():
    rule = build_grid(TorusMetric.flat(), 16)
    dist = np.sqrt(sq_dist(TorusMetric.flat(), rule.nodes, rule.nodes))
    g = metric_field_from_distance(dist, rule).tensor_at(0)
    assert np.max(np.abs(g - np.eye(2))) <= 1e-10


def test_pipeline_metric_flat_torus():
    op, rule, _ = _op(n=32)
    report = run_recovery(op)
    assert report.metric_field.indices.size == 32 * 32
    err = np.max(np.abs(report.metric_field.tensors - np.eye(2)[None]))
    assert err <= 1e-4


def test_metric_field_spd_violation_raises():
    rule = build_grid(TorusMetric.flat(), 8)
    # identically zero distances collapse every stencil tensor to zero
    dist = np.zeros((rule.n, rule.n))
    # (the stencil's zero tensors are -0.0; the sign LAPACK gives back is not pinned)
    with pytest.raises(ConditioningError, match=r"at node 0, eigenvalues \[-?0\.0, -?0\.0\]$"):
        metric_field_from_distance(dist, rule)


def test_metric_field_insufficient_mask_raises():
    rule = build_grid(TorusMetric.flat(), 8)
    dist = np.full((rule.n, rule.n), np.nan)
    np.fill_diagonal(dist, 0.0)
    with pytest.raises(InsufficientMaskError):
        metric_field_from_distance(dist, rule)


def test_metric_field_reports_stencil_coverage():
    op, rule, _ = _op(n=16, t=0.05)  # narrow kernel: long edges fall away
    report = run_recovery(op)
    assert report.metric_field.indices.size <= rule.n
    with pytest.raises(InsufficientMaskError):
        report.metric_field.tensor_at(-1)


# --- density -------------------------------------------------------------------


def test_uniform_density_recovery():
    op, rule, p = _op(n=16)
    report = run_recovery(op)
    truth = 1.0 / FOUR_PI_SQ
    assert np.max(np.abs(report.density - truth) / truth) <= 1e-8


def test_bump_density_recovery():
    op, rule, p = _op(density=CosineBump(0.5, "u"), n=32)
    report = run_recovery(op)
    truth = density_values(p, rule)[report.metric_field.indices]
    assert np.max(np.abs(report.density - truth) / truth) <= 1e-3


def test_density_is_normalized_on_the_grid_it_is_assembled_on():
    # the node masses p(x_j) w_j sum to 1 on the rule the operator is built
    # on, whatever its measure, so recovery sees kernel values of at most 1
    rule = build_grid(TorusMetric.scaled_flat(1.5), 16)
    p = CosineBump(0.4, "u")
    op = assemble_continuous(rule.metric, p, rule, 0.5)
    masses = density_values(p, rule) * rule.weights
    assert abs(float(masses.sum()) - 1.0) <= 1e-12
    report = run_recovery(op)
    assert np.max(np.abs(report.mass - masses) / masses) <= 1e-8


def test_recover_density_direct():
    rule = build_grid(TorusMetric.flat(), 8)
    mass = np.full(rule.n, 1.0 / rule.n)
    field_idx = np.arange(rule.n)
    tensors = np.broadcast_to(np.eye(2), (rule.n, 2, 2))
    from laplab.identify import MetricField

    fld = MetricField(indices=field_idx, tensors=np.array(tensors))
    dens = recover_density(mass, fld, rule.spacing[0] * rule.spacing[1])
    assert np.allclose(dens, 1.0 / FOUR_PI_SQ, rtol=1e-12)


def test_recover_density_is_bitwise_the_explicit_determinant():
    # coupled tensors (g01 != 0), where a LAPACK determinant rounds otherwise
    from laplab.identify import MetricField

    rng = np.random.default_rng(5)
    n = 1000
    g00, g11 = rng.uniform(0.2, 5.0, n), rng.uniform(0.2, 5.0, n)
    g01 = rng.uniform(-0.9, 0.9, n) * np.sqrt(g00 * g11)
    tensors = np.stack([np.stack([g00, g01], -1), np.stack([g01, g11], -1)], -2)
    mass, idx = rng.uniform(0.5, 2.0, n + 7), rng.permutation(n + 7)[:n]
    dens = recover_density(mass, MetricField(indices=idx, tensors=tensors), 0.01)
    want = mass[idx] / (np.sqrt(g00 * g11 - g01 * g01) * 0.01)
    assert np.all(g01 != 0.0) and dens.tobytes() == want.tobytes()


class _FormDistance:
    """Distance sqrt(d^T g d) between grid nodes, d their chart difference
    wrapped into (-pi, pi]: a coupled constant form that no metric builds."""

    def __init__(self, g, nodes):
        self.g, self.nodes, self.shape = g, nodes, (len(nodes),) * 2

    def __getitem__(self, index):
        i, j = index
        d = np.remainder(self.nodes[i] - self.nodes[j] - math.pi, -2 * math.pi) + math.pi
        return np.sqrt(np.einsum("...a,ab,...b->...", d, self.g, d))


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("g01, g", [(0.7, (2.0, 1.0)), (-0.3, (1.0, 2.0))],
                         ids=["g01=0.7", "g01=-0.3"])
def test_cross_stencil_recovers_the_off_diagonal_term(g01, g, n, richardson):
    # the mixed difference carries the whole g01; the stencil of a quadratic form is exact
    rule = build_grid(TorusMetric.flat(), n)
    tensor = np.array([[g[0], g01], [g01, g[1]]])
    fld = metric_field_from_distance(_FormDistance(tensor, rule.nodes), rule, richardson)
    assert np.array_equal(fld.indices, np.arange(rule.n))
    assert np.max(np.abs(fld.tensors - tensor[None])) <= 1e-12


# --- induced metric (extrinsic operators) ------------------------------------------


def test_induced_metric_clifford():
    op, rule, _ = _op(n=32, embedding=CliffordTorus())
    fld = run_recovery(op).metric_field
    assert np.max(np.abs(fld.tensors - np.eye(2)[None])) <= 1e-3


def test_induced_metric_donut_outer_circle():
    emb = DonutTorus(2.0, 1.0)
    op, rule, _ = _op(n=32, embedding=emb)
    fld = run_recovery(op).metric_field
    outer = np.flatnonzero(rule.nodes[fld.indices, 0] == 0.0)
    assert outer.size > 0
    g_true = np.diag([1.0, 9.0])
    assert np.max(np.abs(fld.tensors[outer] - g_true[None])) <= 1e-2


def test_induced_metric_sphere_equator():
    sphere = SphereMetric(1.0)
    rule = build_grid(sphere, 32)
    p = UniformDensity()
    op = assemble_continuous(UnitSphere(), p, rule, 0.5)
    fld = run_recovery(op).metric_field
    eq = np.flatnonzero(np.abs(rule.nodes[fld.indices, 0] - math.pi / 2) < 1e-12)
    assert eq.size > 0
    assert np.max(np.abs(fld.tensors[eq] - np.eye(2)[None])) <= 5e-3


def test_extrinsic_recovery_cannot_see_the_chart_metric():
    # the two metrics of the counterexample pair produce the same extrinsic
    # operator; recovery returns the embedding's metric, not either input
    aniso = TorusMetric.anisotropic(2.0)
    op, rule, _ = _op(aniso, n=32, embedding=CliffordTorus())
    fld = run_recovery(op).metric_field
    err_identity = np.max(np.abs(fld.tensors - np.eye(2)[None]))
    err_aniso = np.max(np.abs(fld.tensors - np.diag([4.0, 0.25])[None]))
    assert err_identity <= 1e-3
    assert err_aniso > 1.0


# --- full pipeline reports ----------------------------------------------------------


def test_run_recovery_report_shape():
    op, rule, p = _op(density=CosineBump(0.5, "u"), n=16)
    report = run_recovery(op)
    n = rule.n
    assert report.mass.shape == (n,)
    assert report.kernel.shape == (n, n)
    assert report.distance.shape == (n, n)
    assert report.density.shape == report.metric_field.indices.shape
    assert report.t == op.t
    assert report.rule is op.rule


def test_report_payload_round_trips_to_json(tmp_path):
    import json

    op, _, _ = _op(n=8)
    report = run_recovery(op)
    from laplab.identify import report_payload

    payload = report_payload(report)
    write_json(payload, tmp_path / "r.json")
    back = json.loads((tmp_path / "r.json").read_text())
    assert back["n"] == 64
    assert len(back["mass"]) == 64

    payload2 = report_payload(report, externalize_dir=tmp_path)
    assert (tmp_path / payload2["matrix_files"]["kernel"]).exists()
    assert (tmp_path / payload2["matrix_files"]["distance"]).exists()
    from laplab.operators import load_matrix

    k = load_matrix(tmp_path / payload2["matrix_files"]["kernel"])
    assert k.shape == (64, 64)


# --- lazy and streamed matrices: the same bits as the dense pipeline --------------


def _dense_kernel_distance(w, mask, t, mass):
    """Reference: kernel and distance built out of place over whole n x n arrays."""
    khat = w / mass[None, :]
    np.minimum(khat, 1.0, out=khat, where=mask)
    np.fill_diagonal(khat, 1.0)
    sym = mask & mask.T
    d = np.full_like(khat, np.nan)
    np.log(khat, out=d, where=sym)
    d *= -t
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    dhat = d + d.T
    dhat *= 0.5
    np.fill_diagonal(dhat, 0.0)
    return khat, dhat


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_SPHERE = SphereMetric(1.0)
# (kernel space, measure metric); grids 16 and 32 give n = 256, 1024 on the torus
# and 240, 992 on the sphere, so tiles need not divide n
_RECOVERY_CASES = {
    "intrinsic-torus": (TorusMetric.anisotropic(1.5), TorusMetric.anisotropic(1.5)),
    "intrinsic-sphere": (_SPHERE, _SPHERE),
    "extrinsic-donut": (DonutTorus(2.0, 1.0), TorusMetric.flat()),
    "extrinsic-sphere": (UnitSphere(), _SPHERE),
}


def _case_op(case, grid):
    kernel, metric = _RECOVERY_CASES[case]
    rule = build_grid(metric, grid)
    p = CosineBump(0.4, "v")
    return assemble_continuous(kernel, p, rule, 0.5)


@pytest.mark.parametrize("grid", [16, 32])
@pytest.mark.parametrize("case", sorted(_RECOVERY_CASES))
def test_lazy_matrices_match_dense_pipeline_bitwise(case, grid, tmp_path):
    from laplab.identify import report_payload

    op = _case_op(case, grid)
    report = run_recovery(op)
    wk = report.wk
    w = _reference_w(op)
    assert np.array_equal(wk.mask, w > EDGE_THRESHOLD)
    khat, dhat = _dense_kernel_distance(w, wk.mask, wk.t, report.mass)
    # the streamed files hold the bytes that save_matrix writes for whole arrays
    files = report_payload(report, externalize_dir=tmp_path / "stream")["matrix_files"]
    for name, ref in (("kernel", khat), ("distance", dhat)):
        save_matrix([ref], tmp_path / f"{name}.llmx", ref.shape)
        streamed = (tmp_path / "stream" / files[name]).read_bytes()
        assert streamed == (tmp_path / f"{name}.llmx").read_bytes()
    # raw bytes: NaN-aware equality, and NaN payloads and signed zeros too
    assert _same_bits(report.kernel, khat) and _same_bits(report.distance, dhat)
    embedded = report_payload(report)
    if op.n > 256:
        assert "matrix_note" in embedded and "kernel" not in embedded
        return
    for name, ref in (("kernel", khat), ("distance", dhat)):
        obj = ref.astype(object)
        obj[~np.isfinite(ref)] = None
        write_json({name: embedded[name]}, tmp_path / "embedded.json")
        text = json.dumps({name: obj.tolist()}, indent=2, sort_keys=True)
        assert (tmp_path / "embedded.json").read_text() == text + "\n"


@pytest.mark.parametrize("grid", [16, 32])
@pytest.mark.parametrize("case", sorted(_RECOVERY_CASES))
def test_pair_view_stencil_matches_dense_stencil_bitwise(case, grid):
    from laplab.identify import _PairDistances

    op = _case_op(case, grid)
    wk = extract_weighted_kernel(op)
    mass = recover_mass(wk)
    view = _PairDistances(wk, mass)
    dhat = _dense_kernel_distance(_reference_w(op), wk.mask, wk.t, mass)[1]
    assert view.shape == dhat.shape
    rng = np.random.default_rng(grid)
    i, j = rng.integers(0, wk.n, size=(2, 4000))
    i[:50] = j[:50]  # some diagonal pairs
    assert _same_bits(view[i, j], dhat[i, j])
    for richardson in (False, True):
        dense = metric_field_from_distance(dhat, op.rule, richardson)
        lazy = metric_field_from_distance(view, op.rule, richardson)
        assert _same_bits(lazy.indices, dense.indices)
        assert _same_bits(lazy.tensors, dense.tensors)


@pytest.mark.parametrize("case", sorted(_RECOVERY_CASES))
def test_recovery_leaves_operator_entries_untouched(case, tmp_path):
    from laplab.identify import report_payload

    op = _case_op(case, 16)
    before = op.entries.tobytes()
    for refine in (False, True):
        report = run_recovery(op, refine=refine)
        assert op.entries.tobytes() == before
        report_payload(report, externalize_dir=tmp_path)
        assert op.entries.tobytes() == before


def test_kernel_overshoot_fails_slim_recovery():
    # doubling one row of W doubles K on that row and its column: > 1 near i
    op, _, _ = _op(n=32)
    assert op.n > 256
    entries = op.entries.copy()
    i = 100
    entries[i] *= 2.0
    entries[i, i] = 0.0
    entries[i, i] = -entries[i].sum()
    bad = dataclasses.replace(op, entries=entries)
    with pytest.raises(InconsistencyError, match="exceeds 1; not a Gaussian kernel"):
        run_recovery(bad)


def test_kernel_overshoot_in_last_partial_block_fails_with_scan_value():
    # grid 10: rows 64..99 form the last, partial 64-row block.  Scaling W at
    # the neighbors (99, 98) and (98, 99) alike keeps their mass ratio and
    # lifts K there just above 1 + KERNEL_SLACK.
    op, _, _ = _op(n=10)
    i, j = op.n - 1, op.n - 2
    m = recover_mass(extract_weighted_kernel(op))
    factor = (1.0 + 2.0 * KERNEL_SLACK) / (op.entries[i, j] * -op.t**2 / m[j])
    entries = op.entries.copy()
    for a, b in ((i, j), (j, i)):
        entries[a, b] *= factor
        entries[a, a] = 0.0
        entries[a, a] = -entries[a].sum()
    bad = dataclasses.replace(op, entries=entries)
    wk = extract_weighted_kernel(bad)
    m = recover_mass(wk)
    # the scan over every masked W_ij / m_j, 64 rows at a time
    high, where = -np.inf, None
    for lo in range(0, wk.n, 64):
        k = wk.w(slice(lo, lo + 64)) / m
        k[~wk.mask[lo:lo + 64]] = -np.inf
        if k.max() > high:
            high, where = float(k.max()), lo
    assert where == 64 and high > 1.0 + KERNEL_SLACK
    message = re.escape(f"recovered kernel value {high} exceeds 1; not a Gaussian kernel operator")
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        run_recovery(bad)
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        recover_kernel_distance(wk, m)


def test_slim_recovery_builds_no_dense_matrix(monkeypatch):
    import laplab.identify as identify

    op, rule, _ = _op(n=32)
    calls, shapes = [], []
    real_kd, real_field = identify.recover_kernel_distance, identify.metric_field_from_distance

    def spy_kd(*args):
        calls.append(1)
        return real_kd(*args)

    def spy_field(dist, *args, **kwargs):
        shapes.append(dist.shape)
        assert not callable(dist) and not isinstance(dist, np.ndarray)
        return real_field(dist, *args, **kwargs)

    monkeypatch.setattr(identify, "recover_kernel_distance", spy_kd)
    monkeypatch.setattr(identify, "metric_field_from_distance", spy_field)
    report = run_recovery(op)
    payload = identify.report_payload(report)
    assert "matrix_note" in payload and calls == []
    assert shapes == [(rule.n, rule.n)]
    kernel, distance = report.kernel, report.distance
    assert report.kernel is kernel and report.distance is distance
    assert calls == [1]


def test_slim_recovery_peak_memory_is_a_few_matrices():
    import tracemalloc

    from laplab.identify import report_payload

    op, rule, _ = _op(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), n=32)
    tracemalloc.start()
    try:
        report_payload(run_recovery(op))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * rule.n**2


@pytest.mark.parametrize("externalize, bound", [(False, 0.6), (True, 1.0)])
def test_recovery_report_peak_memory_holds_no_dense_float_matrix(externalize, bound, tmp_path):
    # in units of one n x n float64 array: W, the kernel and the distance
    # matrix are never held whole, so any one of them coming back adds 1.0
    from laplab.identify import report_payload

    op, rule, _ = _op(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), n=32)
    tracemalloc.start()
    try:
        report_payload(run_recovery(op), externalize_dir=tmp_path if externalize else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * rule.n**2


def test_threaded_recovery_report_peak_memory_holds_no_dense_float_matrix(monkeypatch, tmp_path):
    # the externalized twin above at grid 64 with four strips of the distance
    # stream in flight: about 0.30 at one, 0.35 at two and 0.39 at four, in
    # the same units
    from laplab import operators
    from laplab.identify import report_payload

    op, rule, _ = _op(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), n=64)
    monkeypatch.setattr(operators, "_cpus", lambda: 4)
    tracemalloc.start()
    try:
        report_payload(run_recovery(op), externalize_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for path in tmp_path.iterdir():  # 256 MiB of matrices the suite need not keep
        path.unlink()
    assert operators._threads(rule.n) == 4
    assert peak <= 0.45 * 8 * rule.n**2, peak / (8 * rule.n**2)


# --- no edge matrix: every reader tests W against the threshold where it reads it ---


def test_recovery_peak_memory_holds_no_edge_matrix():
    # in bytes per node pair: an n x n boolean edge mask kept for the whole
    # recovery adds 1.0, and the mask with its symmetric part 2.0
    op, rule, _ = _op(TorusMetric.anisotropic(1.5), CosineBump(0.4, "u"), n=32)
    tracemalloc.start()
    try:
        report = run_recovery(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rule.n**2
    for f in dataclasses.fields(report.wk):
        value = getattr(report.wk, f.name)
        square = isinstance(value, np.ndarray) and value.shape == (rule.n, rule.n)
        assert square == (f.name == "entries"), f.name


def _dense_mask_tree_masses(w):
    """recover_mass's tree search over a dense edge mask, as it ran before the
    mask was dropped: sym = mask & mask.T, neighbors flatnonzero(sym[i] & ~seen)."""
    mask = w > EDGE_THRESHOLD  # the NaN diagonal is no edge
    sym = mask & mask.T
    n = w.shape[0]
    logm = np.full(n, np.nan)
    logm[0] = 0.0
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = [0]
    while queue:
        i = queue.pop(0)
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
    m = np.exp(logm - logm.max())
    return m / m.sum()


def _masses_or_message(recover, arg):
    try:
        return recover(arg).tobytes(), None
    except UnrecoverableMassError as exc:
        return None, str(exc)


# W values at and next to the threshold; t = 1/8 makes -t^2 a power of two,
# so an entry -W / t^2 scales back to W exactly
_NEAR = (np.nextafter(EDGE_THRESHOLD, 0.0), EDGE_THRESHOLD,
         np.nextafter(EDGE_THRESHOLD, 1.0), EDGE_THRESHOLD * (1.0 + 1e-15))
_SPARSE = _op(n=8, t=0.125)[0]


@given(
    cuts=st.lists(st.tuples(st.integers(0, 63), st.integers(-2, 2), st.integers(-2, 2),
                            st.sampled_from(_NEAR)), max_size=60),
    isolated=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(_NEAR[:2])), max_size=2),
)
def test_tree_masses_match_dense_mask_search_bitwise(cuts, isolated):
    # one-way cuts set W_ij at or next to the threshold for a grid neighbor j
    # of i within two steps; an isolated node's row keeps no W above it, so no
    # edge of that node is usable both ways and the graph falls apart
    op, t2 = _SPARSE, _SPARSE.t**2
    entries = op.entries.copy()
    for i, du, dv, w in cuts:
        j = (i // 8 + du) % 8 * 8 + (i % 8 + dv) % 8
        if j != i:
            entries[i, j] = -w / t2
    for i, w in isolated:
        row = entries[i] * -t2
        entries[i, row > EDGE_THRESHOLD] = -w / t2
    for i in {i for i, *_ in cuts} | {i for i, _ in isolated}:
        entries[i, i] = 0.0
        entries[i, i] = -entries[i].sum()
    cut = dataclasses.replace(op, entries=entries)
    got = _masses_or_message(recover_mass, extract_weighted_kernel(cut))
    assert got == _masses_or_message(_dense_mask_tree_masses, _reference_w(cut))


def test_diagonal_above_threshold_is_no_edge():
    # row 5 keeps one W above the threshold and 254 tiny negative ones: the
    # rebalanced diagonal reads -t^2 L_55 = 1.04e-12 > EDGE_THRESHOLD
    op, _, _ = _op()
    entries = op.entries.copy()
    w = np.full(op.n, -1e-14)
    w[6] = 1.5e-12
    entries[5] = w / -op.t**2
    entries[5, 5] = 0.0
    entries[5, 5] = -entries[5].sum()
    bad = dataclasses.replace(op, entries=entries)
    assert entries[5, 5] * -op.t**2 > EDGE_THRESHOLD
    wk = extract_weighted_kernel(bad)
    assert not np.diag(wk.mask).any() and not np.diag(wk.mask & wk.mask.T).any()
    # the recovery ends as it did over the dense mask: node 5's mass blows
    # up through its one edge, and the kernel bound catches it
    ref = _reference_w(bad)
    k = ref / _dense_mask_tree_masses(ref)
    high = float(k[ref > EDGE_THRESHOLD].max())
    message = re.escape(f"recovered kernel value {high} exceeds 1; not a Gaussian kernel operator")
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        run_recovery(bad)


def test_traced_edge_counter_reads_the_edge_count():
    # the benchmark tracer counts edges through WeightedKernel.mask
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    op, _, _ = _op(TorusMetric.anisotropic(1.5))
    wk = extract_weighted_kernel(op)
    counts = tracing.COUNTERS["identify.extract_weighted_kernel"]((op,), {}, wk)
    assert counts == {"identify.edges": 42240, "identify.offdiag": 256 * 255}
    assert int((_reference_w(op) > EDGE_THRESHOLD).sum()) == 42240


# --- one path per job: removed duplicate entry points stay removed -----------------

_REMOVED = [
    "recover_induced_metric_from_extrinsic",
    "recover_metric",
    "run_all",
    "evaluate_discrete_with_se",
    "operator_to_csv",
    "embed",
    "discrete_rms_error",
    "metric_at",
    "volume_density",
    "sphere_chart_to_unit",
    "sample_set_from_csv",
    "write_result_json",
    "_operator",
    "geodesic_distance",
    "_check_sphere_chart",
    "PoleChartError",
    "ambient_distance",
    "apply_operator",
    "IntrinsicKernel",
    "ExtrinsicKernel",
    "KernelMode",
    "DiscreteOperator",
    "SampleSet",
    "kernel_sq_dist",
    "metric_sq_geodesic",
    "_pack_metric",
    "_unpack_metric",
    "_pack_mode",
    "_unpack_mode",
    "Threshold",
    "induced_metric",
    "ChartPoint",
]


@pytest.mark.parametrize(
    "module", ["identify", "verify", "operators", "geometry", "discretization", "errors"])
@pytest.mark.parametrize("name", _REMOVED)
def test_removed_names_stay_removed(module, name):
    mod = importlib.import_module(f"laplab.{module}")
    assert not hasattr(mod, name)


def test_removed_members_and_knobs_stay_removed():
    import inspect

    from laplab.discretization import QuadratureRule
    from laplab.identify import WeightedKernel, report_payload
    from laplab.verify import ScenarioConfig

    assert not hasattr(WeightedKernel, "edge") and not hasattr(WeightedKernel, "sym")
    assert not hasattr(QuadratureRule, "cell_area")
    for make in (lambda: CliffordTorus(ambient_dim=4), lambda: UnitSphere(ambient_dim=3),
                 lambda: DonutTorus(2.0, 1.0, ambient_dim=3)):
        with pytest.raises(TypeError):
            make()
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert fields.isdisjoint({"anisotropy", "bump_alpha", "scale", "tolerances"})
    assert "stem" not in inspect.signature(report_payload).parameters
