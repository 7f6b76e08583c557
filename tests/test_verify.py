"""Scenario harness behavior: pass/fail wiring, report files, determinism,
and the convergence study's statistics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from laplab import verify
from laplab.discretization import UniformDensity, build_grid, normalize_density, sample_points
from laplab.errors import InvalidParameterError
from laplab.geometry import TorusMetric, sq_dist
from laplab.operators import build_operator, continuous_value, operator_distance
from laplab.verify import (
    ScenarioConfig,
    _eval_points,
    _f_cos_u,
    convergence_study,
    run_scenario,
    stencil_order_study,
    write_json,
)


def _cfg(sid, **kw):
    return ScenarioConfig(scenario=sid, **kw)


# --- scenario pass/fail -----------------------------------------------------


def test_s1_intrinsic_separation_and_monotonicity():
    r = run_scenario(_cfg("S1", grid=16))
    assert r.passed
    gaps = [float(v) for v in r.measurements["distance_by_anisotropy"].values()]
    assert gaps == sorted(gaps)
    assert r.discrepancies["operator_distance"] > 1e-3


def test_flat_aniso_gap_crosses_the_s1_s3_gate_between_grids_40_and_64():
    # every entry of L carries its cell weight (2 pi / N)^2, so the largest
    # entrywise gap shrinks as 1/N^2: the "> 1e-3" gates of S1 and S3 hold
    # at t = 0.5 up to grid 40 and fail from grid 44 up
    gaps = {}
    for grid in (40, 64):
        flat, _ = build_operator(TorusMetric.flat(), UniformDensity(), grid, 0.5)
        aniso, _ = build_operator(TorusMetric.anisotropic(2.0), UniformDensity(), grid, 0.5)
        gaps[grid] = operator_distance(flat, aniso)
    assert gaps[40] == pytest.approx(1.18e-3, rel=5e-3) and gaps[40] > 1e-3
    assert gaps[64] == pytest.approx(4.61e-4, rel=5e-3) and gaps[64] < 1e-3


def test_s2_round_trip_is_exact_to_rounding():
    r = run_scenario(_cfg("S2", grid=16))
    assert r.passed
    assert r.discrepancies["metric_max_error"] < 1e-10
    assert r.discrepancies["density_max_rel_error"] < 1e-10


@pytest.mark.parametrize("grid,t", [(16, 0.25), (16, 1.0), (32, 0.5)])
def test_s3_extrinsic_equality_across_configs(grid, t):
    r = run_scenario(_cfg("S3", grid=grid, bandwidth=t))
    assert r.passed
    assert r.discrepancies["extrinsic_distance"] <= 1e-14
    assert r.discrepancies["intrinsic_distance"] > 1e-3


@pytest.mark.parametrize("grid,t", [(16, 0.25), (16, 1.0), (32, 0.5)])
def test_s4_measure_invariance_across_configs(grid, t):
    r = run_scenario(_cfg("S4", grid=grid, bandwidth=t))
    assert r.passed
    assert r.discrepancies["extrinsic_distance"] <= 1e-12
    assert r.discrepancies["mass_max_diff"] <= 1e-8


def test_s6_induced_metrics(tmp_path):
    r = run_scenario(_cfg("S6", out_dir=str(tmp_path)))
    assert r.passed
    assert (tmp_path / "S6.json").exists()


def test_unknown_scenario_rejected():
    with pytest.raises(InvalidParameterError):
        run_scenario(_cfg("S9"))


def test_s6_reports_missing_stencil_coverage():
    # the donut's outer-circle kernel weights underflow the edge mask on a
    # coarse grid; the scenario must say so rather than crash
    from laplab.errors import InsufficientMaskError

    with pytest.raises(InsufficientMaskError):
        run_scenario(_cfg("S6", grid=16))


def test_threshold_buckets_recorded():
    r = run_scenario(_cfg("S3", grid=16))
    assert r.thresholds["extrinsic_distance"]["bucket"] == "identity-exact"
    assert r.thresholds["intrinsic_distance"]["bucket"] == "asymptotic"
    # the S2 metric is constant, so both errors are exact to rounding
    r = run_scenario(_cfg("S2", grid=16))
    for name in ("metric_max_error", "density_max_rel_error"):
        assert r.thresholds[name] == {"limit": 1e-3, "op": "le", "bucket": "identity-exact"}


# --- report files -------------------------------------------------------------


def test_result_json_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        run_scenario(_cfg("S2", grid=16, out_dir=str(d)))
    assert (a / "S2.json").read_bytes() == (b / "S2.json").read_bytes()


def test_result_json_carries_config_and_version(tmp_path):
    run_scenario(_cfg("S3", grid=16, out_dir=str(tmp_path)))
    blob = json.loads((tmp_path / "S3.json").read_text())
    assert blob["config"]["grid"] == 16
    assert blob["pass"] is True
    assert "version" in blob
    assert "thresholds" in blob and "discrepancies" in blob


def test_s2_report_artifact_written(tmp_path):
    r = run_scenario(_cfg("S2", grid=16, out_dir=str(tmp_path)))
    assert "S2_recovery.json" in r.artifacts
    blob = json.loads((tmp_path / "S2_recovery.json").read_text())
    assert blob["n"] == 256
    assert "errors" in blob and "metric_max_error" in blob["errors"]


# --- convergence study ----------------------------------------------------------


def test_convergence_validation():
    with pytest.raises(InvalidParameterError):
        convergence_study(n_values=(100, 200), n_seeds=5)
    with pytest.raises(InvalidParameterError):
        convergence_study(n_values=(100, 200, 200, 400), n_seeds=5)
    with pytest.raises(InvalidParameterError):
        convergence_study(n_values=(100, 200, 400), n_seeds=2)


def test_convergence_error_shrinks_and_slope_is_half():
    study = convergence_study(n_values=(500, 2000, 8000), n_seeds=5, seed=7)
    assert study.errors[0] > study.errors[-1]
    assert -0.65 <= study.slope <= -0.35
    assert study.per_seed.shape == (5, 3)


def test_single_seed_error_within_band_of_mean():
    study = convergence_study(n_values=(500, 2000, 8000), n_seeds=8, seed=11)
    mean = study.errors[0]
    singles = study.per_seed[:, 0]
    assert np.all((mean / 5 <= singles) & (singles <= mean * 5))


def test_doubling_n_changes_the_error():
    study = convergence_study(n_values=(1000, 2000, 4000), n_seeds=5, seed=3)
    a, b = study.per_seed[0, :2]
    assert a != b


def test_reference_record_is_rewritten_never_read(tmp_path):
    def study():
        return convergence_study(n_values=(250, 500, 1000), n_seeds=5, seed=5,
                                 out_dir=str(tmp_path))

    a = study()
    cache = tmp_path / "s5_reference.json"
    assert cache.exists()
    stamp = cache.read_bytes()
    b = study()
    assert np.array_equal(a.per_seed, b.per_seed)
    assert cache.read_bytes() == stamp
    # the file is a record, never an input: a stale or foreign entry is
    # ignored and rewritten
    cache.write_text(json.dumps({"key": "bogus", "values": [0, 0, 0]}))
    c = study()
    assert np.array_equal(c.per_seed, a.per_seed)
    assert cache.read_bytes() == stamp


def test_convergence_per_seed_bits_match_single_point_loop():
    # the study's loop as it stood with a single-point evaluator
    metric = TorusMetric.flat()
    rule = build_grid(metric, 128)
    density = normalize_density(UniformDensity(), rule)
    points = _eval_points()
    ref = np.array([continuous_value(metric, density, rule, 0.5, _f_cos_u, points[k:k + 1])[0]
                    for k in range(len(points))])
    n_values, want = (250, 500, 1000), np.empty((5, 3))
    for i in range(5):
        for j, n in enumerate(n_values):
            pts = sample_points(density, metric, n, 1234 + 1000003 * i + n)
            vals = []
            for k in range(len(points)):
                p = points[k:k + 1]
                d2 = sq_dist(metric, p, pts)[0]
                terms = np.exp(d2 / -0.5) * (float(_f_cos_u(p)[0]) - _f_cos_u(pts))
                vals.append(float(terms.sum() / (n * 0.5**2)))
            want[i, j] = np.sqrt(np.mean((np.array(vals) - ref) ** 2))
    study = convergence_study(n_values=n_values, n_seeds=5)
    assert study.per_seed.tobytes() == want.tobytes()


def test_convergence_csv_has_config_echo_and_slope_footer(tmp_path):
    study = convergence_study(n_values=(500, 2000, 8000), n_seeds=5, seed=7)
    path = tmp_path / "c.csv"
    study.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# ")
    assert "seed=7" in lines[1]
    assert "bandwidth=0.5" in lines[1] and "reference_grid=128" in lines[1]
    assert lines[2] == "n,rms_error"
    assert lines[-1].startswith("slope,")
    parsed = float(lines[-1].split(",")[1])
    assert parsed == pytest.approx(study.slope)


# --- stencil order sweep ----------------------------------------------------------


def test_log_log_slope_is_polyfit_to_rounding():
    # the study's sample sizes and the sweep's spacings, then random fits whose
    # log x lie at least 0.05 apart
    rng = np.random.default_rng(3)
    cases = [((1000, 4000, 16000, 64000), (0.031, 0.016, 0.0081, 0.0039)),
             ((2 * math.pi / 16, 2 * math.pi / 32, 2 * math.pi / 64), (3.2e-3, 8.0e-4, 2.0e-4))]
    while len(cases) < 500:
        x = np.sort(np.exp(rng.uniform(-5.0, 12.0, rng.integers(3, 9))))
        if np.min(np.diff(np.log(x))) >= 0.05:
            cases.append((x, np.exp(rng.uniform(-14.0, 7.0, len(x)))))
    for x, y in cases:
        want = np.polyfit(np.log(x), np.log(y), 1)[0]
        assert abs(verify._log_log_slope(x, y) - want) <= 1e-12 * max(1.0, abs(want))


def test_stencil_order_is_two_on_sphere_distances():
    h, errors, slope = stencil_order_study()
    assert len(h) == len(errors) == 3
    assert errors[0] > errors[1] > errors[2]
    assert 1.8 <= slope <= 2.2


# --- report writer ----------------------------------------------------------------

_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["a, b", "[x, y]", "ü, é", "1.5, NaN"]))
_NUMBERS = st.one_of(st.floats(), st.none(), st.integers(), st.booleans())
# array entries: few distinct values, so that most of them repeat, among them
# both zeros, the non-finite ones and the ends of the float64 range
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300,
                     1e-300, 0.1, 1.0]),
    st.floats(),
)
_ARRAYS = st.one_of(
    arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5), elements=_ENTRIES),
    st.sampled_from([
        np.array([[0.0, -0.0, 5e-324], [-0.0, 0.0, -5e-324]]),
        np.array([math.nan, -math.inf, 1e300, math.nan, -1e-300, math.inf, 0.0]),
        np.empty((3, 0)), np.empty((0, 3)), np.full((2, 1, 3), -0.0),
    ]),
    arrays(np.int64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)),
)
_PAYLOADS = st.recursive(
    _NUMBERS | _TEXT | _ARRAYS,
    lambda inner: st.lists(inner, max_size=6) | st.lists(_NUMBERS, max_size=6) | st.one_of(
        # one key type per dict: json sorts keys before it turns them into text
        st.dictionaries(keys, inner, max_size=6)
        for keys in (_TEXT, _TEXT, st.integers(), st.floats(), st.booleans())
    ),
    max_leaves=40,
)


def _as_lists(obj):
    """obj with every array replaced by its nested list, non-finite entries None."""
    if isinstance(obj, np.ndarray):
        out = obj.astype(object)
        out[~np.isfinite(obj)] = None
        return out.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(x) for x in obj]
    return obj


@given(_PAYLOADS)
def test_write_json_bytes_equal_json_dump(tmp_path_factory, payload):
    # arrays are written from their values, lists through json; the bytes
    # must be those of json.dump on the list form either way
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    lists = _as_lists(payload)
    write_json(payload, path)
    assert path.read_text() == json.dumps(lists, indent=2, sort_keys=True) + "\n"
    # the compact form is json.dump's own, for plain json values
    write_json(lists, path, indent=None)
    assert path.read_text() == json.dumps(lists, sort_keys=True) + "\n"


def test_write_json_formats_each_distinct_float_once(tmp_path, monkeypatch):
    calls = []

    def spy(x):
        calls.append(x)
        return float.__repr__(x)

    monkeypatch.setattr(verify, "_FLOAT_TEXT", spy)
    rng = np.random.default_rng(5)
    values = np.array([0.0, -0.0, math.nan, math.inf, 5e-324, 1e300, 0.1, 1.0 / 3.0])
    matrix = rng.choice(values, size=(40, 30))
    tensors = rng.choice(values[4:], size=(50, 2, 2))
    write_json({"matrix": matrix, "tensors": tensors}, tmp_path / "r.json")
    distinct = [np.unique(a.view(np.uint64)).size for a in (matrix, tensors)]
    assert sorted(distinct) == [4, 8]
    assert len(calls) == sum(distinct)
    ref = json.dumps(_as_lists({"matrix": matrix, "tensors": tensors}), indent=2, sort_keys=True)
    assert (tmp_path / "r.json").read_text() == ref + "\n"
