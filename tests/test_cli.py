"""Command line behavior: each subcommand, exit codes, config merging, and
byte equality between CLI output and direct library calls."""

import json
import subprocess
import sys

import numpy as np
import pytest

from laplab.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "laplab", *args],
        capture_output=True,
        text=True,
    )
    return proc


# --- assemble / recover -------------------------------------------------------


def test_assemble_recover_uniform_flat(tmp_path):
    op_path = tmp_path / "op.llop"
    rep_path = tmp_path / "rep.json"
    assert main(["assemble", "--mode", "intrinsic", "--metric", "flat",
                 "--density", "uniform", "--grid", "4", "--bandwidth", "0.5",
                 "--out", str(op_path)]) == 0
    assert main(["recover", "--operator", str(op_path),
                 "--out", str(rep_path)]) == 0
    blob = json.loads(rep_path.read_text())
    assert blob["n"] == 16
    masses = np.array(blob["mass"])
    assert np.max(np.abs(masses - 1 / 16)) < 1e-10


def test_assemble_cli_matches_library_bytes(tmp_path):
    cli_path = tmp_path / "cli.llop"
    lib_path = tmp_path / "lib.llop"
    assert main(["assemble", "--mode", "extrinsic", "--metric", "flat",
                 "--embedding", "donut:2:1", "--density", "cosine:0.4:v",
                 "--grid", "8", "--bandwidth", "0.25", "--out", str(cli_path)]) == 0

    from laplab.discretization import CosineBump, build_grid, normalize_density
    from laplab.geometry import DonutTorus, TorusMetric
    from laplab.operators import ExtrinsicKernel, assemble_continuous, save_operator

    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(CosineBump(0.4, "v"), rule)
    op = assemble_continuous(ExtrinsicKernel(DonutTorus(2.0, 1.0)), p, rule, 0.25)
    save_operator(op, lib_path)
    assert cli_path.read_bytes() == lib_path.read_bytes()


def test_verify_cli_matches_library_bytes(tmp_path):
    import dataclasses

    from laplab.verify import ScenarioConfig, run_scenario

    cli_dir = tmp_path / "cli"
    lib_dir = tmp_path / "lib"
    assert main(["verify", "--scenario", "S3", "--grid", "16",
                 "--out", str(cli_dir)]) == 0
    run_scenario(ScenarioConfig(scenario="S3", grid=16, out_dir=str(lib_dir)))
    assert (cli_dir / "S3.json").read_bytes() == (lib_dir / "S3.json").read_bytes()


def test_extrinsic_requires_embedding(tmp_path):
    rc = main(["assemble", "--mode", "extrinsic", "--metric", "flat",
               "--density", "uniform", "--grid", "4", "--bandwidth", "0.5",
               "--out", str(tmp_path / "x.llop")])
    assert rc == 2


# --- verify exit codes -----------------------------------------------------------


def test_verify_pass_exits_zero(tmp_path):
    assert main(["verify", "--scenario", "S4", "--grid", "16",
                 "--out", str(tmp_path)]) == 0


def test_verify_scenario_failure_exits_one(capsys):
    # a vanishing bandwidth drives both intrinsic operators to numerical
    # zero, so their separation cannot clear the S1 threshold
    rc = main(["verify", "--scenario", "S1", "--grid", "16",
               "--bandwidth", "0.001"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_scenario_exits_two():
    assert main(["verify", "--scenario", "S99"]) == 2


def test_recovery_numerical_failure_exits_three(tmp_path):
    op_path = tmp_path / "op.llop"
    assert main(["assemble", "--metric", "flat", "--density", "uniform",
                 "--grid", "4", "--bandwidth", "0.5", "--out", str(op_path)]) == 0
    blob = bytearray(op_path.read_bytes())
    blob = blob[: len(blob) // 2]
    op_path.write_bytes(bytes(blob))
    rc = main(["recover", "--operator", str(op_path),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3


def _put_nan_entry(path):
    from laplab.operators import load_operator, save_operator

    op = load_operator(path)
    op.entries[3, 5] = np.nan
    save_operator(op, path)


def _put_grid_shape_8x9(path):
    blob = bytearray(path.read_bytes())
    blob[12:20] = np.array([8, 9], dtype="<u4").tobytes()  # nu, nv: 72 != 64 nodes
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("corrupt", [_put_nan_entry, _put_grid_shape_8x9])
def test_recover_corrupt_operator_exits_three(tmp_path, capsys, corrupt):
    op_path = tmp_path / "op.llop"
    assert main(["assemble", "--metric", "flat", "--density", "uniform",
                 "--grid", "8", "--bandwidth", "0.5", "--out", str(op_path)]) == 0
    corrupt(op_path)
    capsys.readouterr()
    rc = main(["recover", "--operator", str(op_path),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_missing_operator_file_exits_two(tmp_path):
    rc = main(["recover", "--operator", str(tmp_path / "nope.llop"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2


def test_unknown_flag_exits_two_with_usage():
    proc = run_cli("assemble", "--bogus-flag", "1")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_bad_metric_selector_exits_two(tmp_path):
    rc = main(["assemble", "--metric", "hyperbolic", "--density", "uniform",
               "--grid", "4", "--bandwidth", "0.5",
               "--out", str(tmp_path / "x.llop")])
    assert rc == 2


# --- config file ------------------------------------------------------------------


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "S3", "grid": 16}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(cfg), "verify", "--out", str(out_a)]) == 0
    assert main(["verify", "--scenario", "S3", "--grid", "16",
                 "--out", str(out_b)]) == 0
    assert (out_a / "S3.json").read_bytes() == (out_b / "S3.json").read_bytes()


def test_cli_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "S1", "grid": 32}))
    out = tmp_path / "r"
    assert main(["--config", str(cfg), "verify", "--scenario", "S3",
                 "--grid", "16", "--out", str(out)]) == 0
    blob = json.loads((out / "S3.json").read_text())
    assert blob["config"]["grid"] == 16
    assert blob["scenario"] == "S3"


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2,3]")
    assert main(["--config", str(cfg), "verify", "--scenario", "S3"]) == 2


# --- converge ---------------------------------------------------------------------


def test_converge_writes_csv_with_slope_footer(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["converge", "--n", "500,2000,8000", "--seeds", "5",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[-1].startswith("slope,")
    slope = float(lines[-1].split(",")[1])
    assert -0.8 <= slope <= -0.2


def test_converge_rejects_short_n_list(tmp_path):
    rc = main(["converge", "--n", "500,2000", "--seeds", "5",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2


# --- threads flag -----------------------------------------------------------------


def test_threads_flag_validated():
    assert main(["--threads", "0", "verify", "--scenario", "S3",
                 "--grid", "16"]) == 2


def test_threads_flag_accepted(tmp_path):
    assert main(["--threads", "1", "verify", "--scenario", "S4",
                 "--grid", "16", "--out", str(tmp_path)]) == 0
