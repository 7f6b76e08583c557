"""Command line behavior: each subcommand, exit codes, config merging, and
byte equality between CLI output and direct library calls."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import laplab
from laplab.cli import main

# the child process imports the same laplab as this one, installed or not
_SRC = os.path.dirname(os.path.dirname(laplab.__file__))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "laplab", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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


def _put_empty_grid(path):
    blob = bytearray(path.read_bytes()[:94])  # header only, sized for n = 0
    blob[8:20] = np.array([0, 0, 8], dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))


def _append_bytes(path):
    path.write_bytes(path.read_bytes() + b"\0" * 8)


def _put_negative_kernel_e(path):
    # the kernel block follows the 44-byte header: one kind byte, then E, F, G
    blob = bytearray(path.read_bytes())
    blob[45:53] = np.array([-1.0], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))


def _put_band(index, value):
    # header floats t, du, dv start after the 20-byte fixed header
    def put(path):
        blob = bytearray(path.read_bytes())
        blob[20 + 8 * index:28 + 8 * index] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))

    put.__name__ = f"_put_band_{index}_{value}"
    return put


@pytest.mark.parametrize("corrupt", [
    _put_nan_entry, _put_grid_shape_8x9, _put_empty_grid, _append_bytes,
    _put_band(0, np.nan), _put_band(0, -0.5), _put_band(1, np.inf), _put_band(2, 0.0),
    _put_band(0, 1e160), _put_negative_kernel_e,
], ids=lambda f: f.__name__)
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


@pytest.mark.parametrize("argv", [
    ["assemble", "--grid", "4", "--bandwidth", "1e-200"],
    ["assemble", "--grid", "4", "--bandwidth", "1e160"],
    ["assemble", "--grid", "4", "--metric", "sphere:1e-160"],
    ["assemble", "--grid", "4", "--metric", "sphere:1e160"],
    ["converge", "--n", "500,1000,2000", "--seeds", "5", "--bandwidth", "1e300"],
], ids=lambda argv: argv[-1])
def test_unrepresentable_scale_exits_two_with_one_line(tmp_path, argv):
    # t^2 or r^2 overflows or underflows: no traceback, no warning, no file
    proc = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("scale", ["1e154", "1e-160"])
def test_unrepresentable_torus_scale_names_the_scale(tmp_path, scale):
    # E G overflows or underflows while the form is round (ratio 1) and definite
    proc = run_cli("assemble", "--grid", "4", "--metric", f"scaled:{scale}",
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "scale" in proc.stderr
    assert "ratio" not in proc.stderr and "definite" not in proc.stderr
    assert os.listdir(tmp_path) == []


def test_overflowing_kernel_exponent_prints_only_the_underflow_warning(tmp_path):
    # squared distance / t overflows at this radius; exp of it is 0 either way
    proc = run_cli("assemble", "--grid", "4", "--metric", "sphere:3.7e153",
                   "--out", str(tmp_path / "x.llop"))
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: 12 rows") and proc.stderr.count("\n") == 1


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


@pytest.mark.parametrize("grid_flag", [["--gri", "4"], ["--grid=4"], ["--gri=4"]])
def test_abbreviated_and_joined_flags_beat_config(tmp_path, grid_flag):
    from laplab.operators import load_operator

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 8}))
    out = tmp_path / "x.llop"
    assert main(["--config", str(cfg), "assemble", "--mode", "intrinsic",
                 "--metric", "flat", "--density", "uniform", *grid_flag,
                 "--bandwidth", "0.5", "--out", str(out)]) == 0
    assert load_operator(str(out)).n == 16


@pytest.mark.parametrize("cfg, code", [
    ({"threads": "2"}, 0),
    ({"grid": "4"}, 0),
    ({"command": "converge"}, 0),
    ({"config": "elsewhere.json"}, 0),
    ({"scenario": "S99"}, 0),
    ({"bandwidth": None}, 2),
    ({"grid": "abc"}, 2),
    ({"grid": 4.5}, 2),
    ({"grid": True}, 2),
    ({"grid": [4]}, 2),
    ({"mode": "bogus"}, 2),
    ({"threads": 0}, 2),
])
def test_config_values_parse_like_flags(tmp_path, capsys, cfg, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": 4, **cfg}))
    rc = main(["--config", str(path), "assemble", "--out", str(tmp_path / "x.llop")])
    assert rc == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert (tmp_path / "x.llop").exists()


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


@pytest.mark.parametrize("stale", ["[]", '{"key": 1}', "not json {"])
def test_converge_never_reads_its_output_directory(tmp_path, capsys, stale):
    argv = ["converge", "--n", "500,1000,2000", "--seeds", "5"]
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "s5_reference.json").write_text(stale)
    for d in (clean, dirty):
        assert main([*argv, "--out", str(d / "c.csv")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("c.csv", "s5_reference.json"):
        assert (dirty / name).read_bytes() == (clean / name).read_bytes()


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


# --- fuzzing: exit code in {0, 2, 3}, never a traceback -------------------------------


_CONFIG_KEYS = ["command", "config", "threads", "mode", "metric", "embedding",
                "density", "grid", "bandwidth", "out", "operator", "externalize",
                "refine", "scenario", "seed", "seeds", "n"]
# small ints and 3-character strings over the digits 0-3 keep every grid the
# fuzzer can pick at most 32 or past the dense cap, so each example is fast
_CONFIG_VALUES = st.one_of(
    st.integers(-2, 8),
    st.floats(),
    st.text(alphabet="0123:.-aeflinrsx", max_size=3),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-2, 8), max_size=2),
)


def _main_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@given(cfg=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES, max_size=4))
def test_fuzzed_config_never_tracebacks(tmp_path_factory, cfg):
    work = tmp_path_factory.mktemp("cfg")
    path = work / "cfg.json"
    path.write_text(json.dumps({"grid": 4, **cfg}))
    rc, err = _main_quietly(["--config", str(path), "assemble", "--out", str(work / "x.llop")])
    assert rc in (0, 2)
    assert rc == 0 or err.count("\n") == 1


@pytest.fixture(scope="module")
def grid4_operator(tmp_path_factory):
    path = tmp_path_factory.mktemp("llop") / "op.llop"
    assert main(["assemble", "--metric", "flat", "--density", "cosine:0.3:u",
                 "--grid", "4", "--out", str(path)]) == 0
    return path.read_bytes()


_HEADER_SIZE = 94  # 20-byte fixed part, t/du/dv, two 25-byte parameter blocks
_PAYLOAD_SIZE = 8 * 16 * 18  # grid 4: 16 nodes x 2, then 16 x 16 entries
_U32_OFFSETS = (8, 12, 16)  # n, nu, nv
_F64_OFFSETS = (20, 28, 36, 45, 70)  # t, du, dv, first kernel and metric parameters


def _mutate(blob, how):
    kind, where, what = how
    blob = bytearray(blob)
    if kind == "u32":
        blob[where:where + 4] = np.array([what], dtype="<u4").tobytes()
    elif kind == "f64":
        blob[where:where + 8] = np.array([what], dtype="<f8").tobytes()
    elif kind == "bytes":
        blob[where:where + len(what)] = what
    elif kind == "truncate":
        del blob[where:]
    else:
        blob += what
    return bytes(blob)


_MUTATIONS = st.one_of(
    st.tuples(st.just("u32"), st.sampled_from(_U32_OFFSETS), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("f64"), st.sampled_from(_F64_OFFSETS), st.floats()),
    st.tuples(st.just("bytes"), st.integers(0, _HEADER_SIZE - 1),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, _HEADER_SIZE + _PAYLOAD_SIZE - 1),
              st.none()),
    st.tuples(st.just("append"), st.none(), st.binary(min_size=1, max_size=16)),
)


@given(how=_MUTATIONS)
def test_fuzzed_operator_file_never_tracebacks(tmp_path_factory, grid4_operator, how):
    work = tmp_path_factory.mktemp("rec")
    path = work / "op.llop"
    path.write_bytes(_mutate(grid4_operator, how))
    rc, err = _main_quietly(["recover", "--operator", str(path),
                             "--out", str(work / "r.json")])
    assert rc in (0, 2, 3)
    assert rc == 0 or err.count("\n") == 1
