"""Scenario harness behavior: pass/fail wiring, report files, determinism,
and the convergence study's statistics."""

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from laplab.errors import InvalidParameterError
from laplab.verify import (
    ScenarioConfig,
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
    study = convergence_study(
        n_values=(500, 2000, 8000), n_seeds=5, seed=7, reference_grid=64
    )
    assert study.errors[0] > study.errors[-1]
    assert -0.65 <= study.slope <= -0.35
    assert study.per_seed.shape == (5, 3)


def test_single_seed_error_within_band_of_mean():
    study = convergence_study(
        n_values=(500, 2000, 8000), n_seeds=8, seed=11, reference_grid=64
    )
    mean = study.errors[0]
    singles = study.per_seed[:, 0]
    assert np.all((mean / 5 <= singles) & (singles <= mean * 5))


def test_doubling_n_changes_the_error():
    study = convergence_study(
        n_values=(1000, 2000, 4000), n_seeds=5, seed=3, reference_grid=64
    )
    a, b = study.per_seed[0, :2]
    assert a != b


def test_reference_cache_reused(tmp_path):
    def study():
        return convergence_study(n_values=(250, 500, 1000), n_seeds=5, seed=5,
                                 reference_grid=64, out_dir=str(tmp_path))

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


def test_convergence_csv_has_config_echo_and_slope_footer(tmp_path):
    study = convergence_study(
        n_values=(500, 2000, 8000), n_seeds=5, seed=7, reference_grid=64
    )
    path = tmp_path / "c.csv"
    study.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# ")
    assert "seed=7" in lines[1]
    assert "bandwidth=0.5" in lines[1] and "reference_grid=64" in lines[1]
    assert lines[2] == "n,rms_error"
    assert lines[-1].startswith("slope,")
    parsed = float(lines[-1].split(",")[1])
    assert parsed == pytest.approx(study.slope)


# --- stencil order sweep ----------------------------------------------------------


def test_stencil_order_is_two_on_sphere_distances():
    h, errors, slope = stencil_order_study()
    assert len(h) == len(errors) == 3
    assert errors[0] > errors[1] > errors[2]
    assert 1.8 <= slope <= 2.2


# --- report writer ----------------------------------------------------------------

_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["a, b", "[x, y]", "ü, é", "1.5, NaN"]))
_NUMBERS = st.one_of(st.floats(), st.none(), st.integers(), st.booleans())
_PAYLOADS = st.recursive(
    _NUMBERS | _TEXT,
    lambda inner: st.lists(inner, max_size=6) | st.lists(_NUMBERS, max_size=6) | st.one_of(
        # one key type per dict: json sorts keys before it turns them into text
        st.dictionaries(keys, inner, max_size=6)
        for keys in (_TEXT, _TEXT, st.integers(), st.floats(), st.booleans())
    ),
    max_leaves=40,
)


@given(_PAYLOADS)
def test_write_json_bytes_equal_json_dump(tmp_path_factory, payload):
    # flat number lists go through the C encoder; the bytes must not notice
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    for indent in (2, None):
        ref = io.StringIO()
        json.dump(payload, ref, indent=indent, sort_keys=True)
        write_json(payload, path, indent=indent)
        assert path.read_text() == ref.getvalue() + "\n"
