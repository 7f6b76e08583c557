"""Inverse pipeline: operator -> masses -> kernel -> distances -> metric
-> density.

Forward assembly is the oracle throughout: every recovered quantity is
compared against the closed-form inputs the operator was built from.
"""

import importlib
import math

import numpy as np
import pytest

from laplab.discretization import (
    CosineBump,
    UniformDensity,
    build_grid,
    density_values,
    normalize_density,
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
    metric_sq_geodesic,
)
from laplab.identify import (
    extract_weighted_kernel,
    metric_field_from_distance,
    recover_density,
    recover_kernel_distance,
    recover_mass,
    run_recovery,
)
from laplab.operators import (
    ExtrinsicKernel,
    IntrinsicKernel,
    assemble_continuous,
)

FOUR_PI_SQ = 4 * math.pi**2


def _op(metric=None, density=None, n=16, t=0.5, kernel=None):
    metric = metric or TorusMetric.flat()
    rule = build_grid(metric, n)
    p = normalize_density(density or UniformDensity(), rule)
    mode = kernel or IntrinsicKernel(metric)
    return assemble_continuous(mode, p, rule, t), rule, p


# --- kernel extraction --------------------------------------------------------


def test_extracted_kernel_matches_forward_construction():
    op, rule, p = _op(TorusMetric.anisotropic(1.5), CosineBump(0.3, "u"))
    wk = extract_weighted_kernel(op)
    d2 = metric_sq_geodesic(TorusMetric.anisotropic(1.5), rule.nodes, rule.nodes)
    w_direct = np.exp(-d2 / op.t) * (density_values(p, rule.nodes) * rule.weights)[None, :]
    diff = np.abs(wk.w - w_direct)[wk.mask]
    assert float(diff.max()) <= 1e-12


def test_extracted_diagonal_is_nan():
    op, _, _ = _op()
    wk = extract_weighted_kernel(op)
    assert np.all(np.isnan(np.diag(wk.w)))
    assert not np.any(np.diag(wk.mask))


def test_extract_rejects_broken_row_sums():
    op, _, _ = _op()
    bad = op.entries.copy()
    bad[3, 5] += 1e-6
    op2 = type(op)(
        entries=bad, nodes=op.nodes, t=op.t, mode=op.mode,
        measure_metric=op.measure_metric, grid_shape=op.grid_shape,
        spacing=op.spacing,
    )
    with pytest.raises(MalformedOperatorError):
        extract_weighted_kernel(op2)


def test_extract_rejects_positive_off_diagonal():
    op, _, _ = _op()
    bad = op.entries.copy()
    # flip one kernel weight's sign, repair the row sum on the diagonal
    bad[3, 5] = -bad[3, 5]
    bad[3, 3] -= 2 * bad[3, 5]
    op2 = type(op)(
        entries=bad, nodes=op.nodes, t=op.t, mode=op.mode,
        measure_metric=op.measure_metric, grid_shape=op.grid_shape,
        spacing=op.spacing,
    )
    with pytest.raises(MalformedOperatorError):
        extract_weighted_kernel(op2)


def test_extract_rejects_non_finite_entry():
    op, _, _ = _op(n=8)
    bad = op.entries.copy()
    bad[3, 5] = np.nan
    op2 = type(op)(
        entries=bad, nodes=op.nodes, t=op.t, mode=op.mode,
        measure_metric=op.measure_metric, grid_shape=op.grid_shape,
        spacing=op.spacing,
    )
    with pytest.raises(MalformedOperatorError, match="non-finite"):
        extract_weighted_kernel(op2)
    with pytest.raises(MalformedOperatorError, match="non-finite"):
        run_recovery(op2)


def test_extract_rejects_all_zero_row():
    op, _, _ = _op()
    bad = op.entries.copy()
    bad[7, :] = 0.0
    op2 = type(op)(
        entries=bad, nodes=op.nodes, t=op.t, mode=op.mode,
        measure_metric=op.measure_metric, grid_shape=op.grid_shape,
        spacing=op.spacing,
    )
    with pytest.raises(MalformedOperatorError, match="all-zero kernel row"):
        extract_weighted_kernel(op2)


def test_extract_clips_tiny_negative_weight():
    op, _, _ = _op(n=8)
    bad = op.entries.copy()
    # an operator entry just above zero is a kernel weight just below zero,
    # inside the rounding tolerance; the diagonal keeps the row sum at zero
    tiny = 5e-15 / op.t**2
    bad[3, 3] += bad[3, 5] - tiny
    bad[3, 5] = tiny
    op2 = type(op)(
        entries=bad, nodes=op.nodes, t=op.t, mode=op.mode,
        measure_metric=op.measure_metric, grid_shape=op.grid_shape,
        spacing=op.spacing,
    )
    wk = extract_weighted_kernel(op2)
    assert wk.w[3, 5] == 0.0
    assert not wk.mask[3, 5]
    assert wk.mask[5, 3]
    assert np.all(wk.w[~np.eye(wk.n, dtype=bool)] >= 0.0)


# --- mass recovery --------------------------------------------------------------


def test_uniform_masses_are_equal():
    op, _, _ = _op(n=16)
    m = recover_mass(extract_weighted_kernel(op))
    assert np.max(np.abs(m - 1 / 256)) < 1e-10


def test_bump_masses_match_density_times_weights():
    op, rule, p = _op(density=CosineBump(0.5, "u"), n=32)
    m = recover_mass(extract_weighted_kernel(op))
    truth = density_values(p, rule.nodes) * rule.weights
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
    wk = extract_weighted_kernel(type(op)(
        entries=noisy, nodes=op.nodes, t=op.t, mode=op.mode,
        measure_metric=op.measure_metric, grid_shape=op.grid_shape,
        spacing=op.spacing,
    ))
    truth = density_values(p, rule.nodes) * rule.weights
    truth /= truth.sum()
    tree_err = np.max(np.abs(recover_mass(wk) - truth) / truth)
    ls_err = np.max(np.abs(recover_mass(wk, refine=True) - truth) / truth)
    assert ls_err <= tree_err / 5


def test_mass_does_not_depend_on_kernel_mode():
    # masses are p(x_j) w_j; the kernel mode only changes distances
    metric = TorusMetric.flat()
    m_int = recover_mass(extract_weighted_kernel(
        _op(metric, CosineBump(0.5, "u"))[0]))
    m_ext = recover_mass(extract_weighted_kernel(
        _op(metric, CosineBump(0.5, "u"), kernel=ExtrinsicKernel(CliffordTorus()))[0]))
    assert np.max(np.abs(m_int - m_ext)) <= 1e-8


def test_disconnected_graph_raises():
    op, _, _ = _op(n=8)
    wk = extract_weighted_kernel(op)
    cut = wk.mask.copy()
    cut[0, :] = False
    cut[:, 0] = False
    wk2 = type(wk)(w=wk.w, mask=cut, t=wk.t)
    with pytest.raises(UnrecoverableMassError):
        recover_mass(wk2)


# --- kernel and distance ---------------------------------------------------------


def test_recovered_distances_match_geodesics():
    metric = TorusMetric.anisotropic(2.0)
    op, rule, _ = _op(metric)
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    khat, dhat = recover_kernel_distance(wk, m)
    d_true = np.sqrt(metric_sq_geodesic(metric, rule.nodes, rule.nodes))
    sym = wk.sym
    assert float(np.max(np.abs(dhat[sym] - d_true[sym]))) <= 1e-7
    assert np.all(np.diag(khat) == 1.0)
    assert np.all(np.diag(dhat) == 0.0)


def test_recovered_distances_match_chords_for_extrinsic():
    emb = CliffordTorus()
    op, rule, _ = _op(kernel=ExtrinsicKernel(emb))
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    _, dhat = recover_kernel_distance(wk, m)
    d_true = np.sqrt(ambient_sq_dist(emb, rule.nodes, rule.nodes))
    sym = wk.sym
    assert float(np.max(np.abs(dhat[sym] - d_true[sym]))) <= 1e-7


def test_distance_error_stays_below_roundoff_amplification():
    # log/exp round trip: sigma error ~ eps * t * |log K|; require
    # the recovered sigma to sit within sqrt(eps)*t of truth everywhere
    metric = TorusMetric.flat()
    op, rule, _ = _op(metric, t=0.25)
    wk = extract_weighted_kernel(op)
    _, dhat = recover_kernel_distance(wk, recover_mass(wk))
    d_true = np.sqrt(metric_sq_geodesic(metric, rule.nodes, rule.nodes))
    sym = wk.sym
    bound = math.sqrt(np.finfo(float).eps) * 0.25
    assert float(np.max(np.abs(dhat[sym] ** 2 - d_true[sym] ** 2))) <= bound


def test_inflated_kernel_value_raises():
    op, _, _ = _op(n=8)
    wk = extract_weighted_kernel(op)
    m = recover_mass(wk)
    with pytest.raises(InconsistencyError):
        recover_kernel_distance(wk, m * 0.2)  # masses too small -> K > 1


# --- metric stencil ---------------------------------------------------------------


def test_stencil_exact_on_anisotropic_sigma():
    metric = TorusMetric.anisotropic(2.0)
    rule = build_grid(metric, 16)
    dist = np.sqrt(metric_sq_geodesic(metric, rule.nodes, rule.nodes))
    fld = metric_field_from_distance(dist, rule.grid_shape, rule.spacing)
    g = fld.tensor_at(5 * 16 + 3)
    assert np.max(np.abs(g - np.diag([4.0, 0.25]))) <= 1e-10


def test_stencil_exact_on_flat_sigma():
    rule = build_grid(TorusMetric.flat(), 16)
    dist = np.sqrt(metric_sq_geodesic(TorusMetric.flat(), rule.nodes, rule.nodes))
    g = metric_field_from_distance(dist, rule.grid_shape, rule.spacing).tensor_at(0)
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
    with pytest.raises(ConditioningError):
        metric_field_from_distance(dist, rule.grid_shape, rule.spacing)


def test_metric_field_insufficient_mask_raises():
    rule = build_grid(TorusMetric.flat(), 8)
    dist = np.full((rule.n, rule.n), np.nan)
    np.fill_diagonal(dist, 0.0)
    with pytest.raises(InsufficientMaskError):
        metric_field_from_distance(dist, rule.grid_shape, rule.spacing)


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
    truth = density_values(p, rule.nodes)[report.metric_field.indices]
    assert np.max(np.abs(report.density - truth) / truth) <= 1e-3


def test_recover_density_direct():
    rule = build_grid(TorusMetric.flat(), 8)
    mass = np.full(rule.n, 1.0 / rule.n)
    field_idx = np.arange(rule.n)
    tensors = np.broadcast_to(np.eye(2), (rule.n, 2, 2))
    from laplab.identify import MetricField

    fld = MetricField(indices=field_idx, tensors=np.array(tensors))
    dens = recover_density(mass, fld, rule.spacing[0] * rule.spacing[1])
    assert np.allclose(dens, 1.0 / FOUR_PI_SQ, rtol=1e-12)


# --- induced metric (extrinsic operators) ------------------------------------------


def test_induced_metric_clifford():
    op, rule, _ = _op(n=32, kernel=ExtrinsicKernel(CliffordTorus()))
    fld = run_recovery(op).metric_field
    assert np.max(np.abs(fld.tensors - np.eye(2)[None])) <= 1e-3


def test_induced_metric_donut_outer_circle():
    emb = DonutTorus(2.0, 1.0)
    op, rule, _ = _op(n=32, kernel=ExtrinsicKernel(emb))
    fld = run_recovery(op).metric_field
    outer = np.flatnonzero(rule.nodes[fld.indices, 0] == 0.0)
    assert outer.size > 0
    g_true = np.diag([1.0, 9.0])
    assert np.max(np.abs(fld.tensors[outer] - g_true[None])) <= 1e-2


def test_induced_metric_sphere_equator():
    sphere = SphereMetric(1.0)
    rule = build_grid(sphere, 32)
    p = normalize_density(UniformDensity(), rule)
    op = assemble_continuous(ExtrinsicKernel(UnitSphere()), p, rule, 0.5)
    fld = run_recovery(op).metric_field
    eq = np.flatnonzero(np.abs(rule.nodes[fld.indices, 0] - math.pi / 2) < 1e-12)
    assert eq.size > 0
    assert np.max(np.abs(fld.tensors[eq] - np.eye(2)[None])) <= 5e-3


def test_extrinsic_recovery_cannot_see_the_chart_metric():
    # the two metrics of the counterexample pair produce the same extrinsic
    # operator; recovery returns the embedding's metric, not either input
    aniso = TorusMetric.anisotropic(2.0)
    op, rule, _ = _op(aniso, n=32, kernel=ExtrinsicKernel(CliffordTorus()))
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
    assert report.grid_shape == op.grid_shape


def test_report_payload_round_trips_to_json(tmp_path):
    import json

    op, _, _ = _op(n=8)
    report = run_recovery(op)
    from laplab.identify import report_payload

    payload = report_payload(report)
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["n"] == 64
    assert len(back["mass"]) == 64

    payload2 = report_payload(report, externalize_dir=tmp_path)
    assert (tmp_path / payload2["matrix_files"]["kernel"]).exists()
    assert (tmp_path / payload2["matrix_files"]["distance"]).exists()
    from laplab.operators import load_matrix

    k = load_matrix(tmp_path / payload2["matrix_files"]["kernel"])
    assert k.shape == (64, 64)


# --- lazy matrices: dense only on read, the same bits as the dense pipeline -------


def _dense_kernel_distance(wk, mass):
    """Reference: kernel and distance built out of place over whole n x n arrays."""
    khat = wk.w / mass[None, :]
    np.minimum(khat, 1.0, out=khat, where=wk.mask)
    np.fill_diagonal(khat, 1.0)
    sym = wk.mask & wk.mask.T
    d = np.full_like(khat, np.nan)
    np.log(khat, out=d, where=sym)
    d *= -wk.t
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    dhat = d + d.T
    dhat *= 0.5
    np.fill_diagonal(dhat, 0.0)
    return khat, dhat


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_SPHERE = SphereMetric(1.0)
# (kernel, measure metric); grids 16 and 32 give n = 256, 1024 on the torus
# and 240, 992 on the sphere, so tiles need not divide n
_RECOVERY_CASES = {
    "intrinsic-torus": (IntrinsicKernel(TorusMetric.anisotropic(1.5)), TorusMetric.anisotropic(1.5)),
    "intrinsic-sphere": (IntrinsicKernel(_SPHERE), _SPHERE),
    "extrinsic-donut": (ExtrinsicKernel(DonutTorus(2.0, 1.0)), TorusMetric.flat()),
    "extrinsic-sphere": (ExtrinsicKernel(UnitSphere()), _SPHERE),
}


def _case_op(case, grid):
    kernel, metric = _RECOVERY_CASES[case]
    rule = build_grid(metric, grid)
    p = normalize_density(CosineBump(0.4, "v"), rule)
    return assemble_continuous(kernel, p, rule, 0.5)


@pytest.mark.parametrize("grid", [16, 32])
@pytest.mark.parametrize("case", sorted(_RECOVERY_CASES))
def test_lazy_matrices_match_dense_pipeline_bitwise(case, grid):
    report = run_recovery(_case_op(case, grid))
    wk = report.wk
    assert _same_bits(wk.sym, wk.mask & wk.mask.T)
    khat, dhat = _dense_kernel_distance(wk, report.mass)
    # raw bytes: NaN-aware equality, and NaN payloads and signed zeros too
    assert _same_bits(report.kernel, khat) and _same_bits(report.distance, dhat)


@pytest.mark.parametrize("grid", [16, 32])
@pytest.mark.parametrize("case", sorted(_RECOVERY_CASES))
def test_pair_view_stencil_matches_dense_stencil_bitwise(case, grid):
    from laplab.identify import _PairDistances

    op = _case_op(case, grid)
    wk = extract_weighted_kernel(op)
    mass = recover_mass(wk)
    view = _PairDistances(wk, mass)
    dhat = _dense_kernel_distance(wk, mass)[1]
    assert view.shape == dhat.shape
    rng = np.random.default_rng(grid)
    i, j = rng.integers(0, wk.n, size=(2, 4000))
    i[:50] = j[:50]  # some diagonal pairs
    assert _same_bits(view[i, j], dhat[i, j])
    periodic = isinstance(op.measure_metric, TorusMetric)
    for richardson in (False, True):
        dense = metric_field_from_distance(dhat, op.grid_shape, op.spacing, periodic, richardson)
        lazy = metric_field_from_distance(view, op.grid_shape, op.spacing, periodic, richardson)
        assert _same_bits(lazy.indices, dense.indices)
        assert _same_bits(lazy.tensors, dense.tensors)


def test_kernel_overshoot_fails_slim_recovery():
    # doubling one row of W doubles K on that row and its column: > 1 near i
    op, _, _ = _op(n=32)
    assert op.n > 256
    entries = op.entries.copy()
    i = 100
    entries[i] *= 2.0
    entries[i, i] = 0.0
    entries[i, i] = -entries[i].sum()
    bad = type(op)(entries, op.nodes, op.t, op.mode, op.measure_metric,
                   op.grid_shape, op.spacing)
    with pytest.raises(InconsistencyError, match="exceeds 1; not a Gaussian kernel"):
        run_recovery(bad)


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
]


@pytest.mark.parametrize(
    "module", ["identify", "verify", "operators", "geometry", "discretization"])
@pytest.mark.parametrize("name", _REMOVED)
def test_removed_names_stay_removed(module, name):
    mod = importlib.import_module(f"laplab.{module}")
    assert not hasattr(mod, name)


def test_removed_members_and_knobs_stay_removed():
    import dataclasses
    import inspect

    from laplab.discretization import QuadratureRule, SampleSet
    from laplab.geometry import ChartPoint
    from laplab.identify import report_payload
    from laplab.verify import ScenarioConfig

    assert not hasattr(ChartPoint, "offset")
    assert not hasattr(QuadratureRule, "cell_area")
    assert not hasattr(SampleSet, "to_csv")
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert fields.isdisjoint({"anisotropy", "bump_alpha", "scale", "tolerances"})
    assert "stem" not in inspect.signature(report_payload).parameters
