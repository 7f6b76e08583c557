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
    from laplab.operators import assemble_continuous, save_operator

    rule = build_grid(TorusMetric.flat(), 8)
    p = normalize_density(CosineBump(0.4, "v"), rule)
    op = assemble_continuous(DonutTorus(2.0, 1.0), p, rule, 0.25)
    save_operator(op, lib_path)
    assert cli_path.read_bytes() == lib_path.read_bytes()


def test_verify_cli_matches_library_bytes(tmp_path):
    from laplab.verify import ScenarioConfig, run_scenario

    cli_dir = tmp_path / "cli"
    lib_dir = tmp_path / "lib"
    assert main(["verify", "--scenario", "S3", "--grid", "16",
                 "--out", str(cli_dir)]) == 0
    run_scenario(ScenarioConfig(scenario="S3", grid=16, out_dir=str(lib_dir)))
    assert (cli_dir / "S3.json").read_bytes() == (lib_dir / "S3.json").read_bytes()


# the four surfaces of the benchmark's recover batch
_REPORT_CASES = {
    "intrinsic-aniso-torus": ["--mode", "intrinsic", "--metric", "aniso:1.5"],
    "extrinsic-donut": ["--mode", "extrinsic", "--metric", "flat", "--embedding", "donut:2:1"],
    "extrinsic-sphere": ["--mode", "extrinsic", "--metric", "sphere:1", "--embedding", "sphere"],
    "intrinsic-sphere": ["--mode", "intrinsic", "--metric", "sphere:1"],
}


def _list_payload(report, externalize):
    """The report as nested lists, each matrix through astype(object) with its
    non-finite entries set to None: the payload json.dump wrote reports from."""
    def nulls(mat):
        obj = mat.astype(object)
        obj[~np.isfinite(mat)] = None
        return obj.tolist()

    fld = report.metric_field
    payload = {
        "version": laplab.__version__,
        "t": report.t,
        "grid_shape": list(report.rule.grid_shape),
        "spacing": list(report.rule.spacing),
        "n": int(report.mass.shape[0]),
        "mass": report.mass.tolist(),
        "metric": {"indices": fld.indices.tolist(), "tensors": fld.tensors.tolist()},
        "density": {"indices": fld.indices.tolist(), "values": report.density.tolist()},
        "errors": {},
    }
    if externalize:
        payload["matrix_files"] = {"kernel": "recovery_kernel.llmx",
                                   "distance": "recovery_distance.llmx"}
    else:
        payload["kernel"], payload["distance"] = nulls(report.kernel), nulls(report.distance)
    return payload


@pytest.mark.parametrize("externalize", [False, True])
@pytest.mark.parametrize("case", sorted(_REPORT_CASES))
def test_recover_report_bytes_equal_json_dump_of_list_payload(tmp_path, case, externalize):
    from laplab.identify import run_recovery
    from laplab.operators import load_operator

    op_path, out = tmp_path / "op.llop", tmp_path / "r.json"
    assert main(["assemble", *_REPORT_CASES[case], "--density", "cosine:0.4:v",
                 "--grid", "8", "--bandwidth", "0.5", "--out", str(op_path)]) == 0
    extra = ["--externalize", str(tmp_path / "mx")] if externalize else []
    assert main(["recover", "--operator", str(op_path), "--out", str(out), *extra]) == 0
    ref = json.dumps(_list_payload(run_recovery(load_operator(op_path)), externalize),
                     indent=2, sort_keys=True)
    assert out.read_text() == ref + "\n"


def test_extrinsic_requires_embedding(tmp_path):
    rc = main(["assemble", "--mode", "extrinsic", "--metric", "flat",
               "--density", "uniform", "--grid", "4", "--bandwidth", "0.5",
               "--out", str(tmp_path / "x.llop")])
    assert rc == 2


@pytest.mark.parametrize("embedding", ["bogus", "clifford", ""])
def test_embedding_in_intrinsic_mode_exits_two(tmp_path, capsys, embedding):
    rc = main(["assemble", "--grid", "4", f"--embedding={embedding}",
               "--out", str(tmp_path / "x.llop")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --embedding applies to extrinsic mode only\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["--metric", "flat:junk"],
    ["--mode", "extrinsic", "--embedding", "clifford:x"],
    ["--mode", "extrinsic", "--embedding", "sphere:x"],
    ["--density", "uniform:zzz"],
], ids=lambda argv: argv[-1])
def test_selector_without_parameters_refuses_a_suffix(tmp_path, capsys, monkeypatch, argv):
    from laplab import operators

    def build_operator(*args, **kwargs):
        raise AssertionError("build_operator ran")

    monkeypatch.setattr(operators, "build_operator", build_operator)
    rc = main(["assemble", "--grid", "4", *argv, "--out", str(tmp_path / "x.llop")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and argv[-1] in err
    assert os.listdir(tmp_path) == []


_NUMERIC_SELECTOR_ERRORS = [
    (["--metric", "aniso"], "--metric aniso:<a> needs one number, got ''"),
    (["--metric", "aniso:x"], "--metric aniso:<a> needs one number, got 'x'"),
    (["--metric", "scaled:2:3"], "--metric scaled:<c> needs one number, got '2:3'"),
    (["--metric", "sphere:1:2"], "--metric sphere:<R> needs one number, got '1:2'"),
    (["--metric", "sphere:"], "--metric sphere:<R> needs one number, got ''"),
    (["--mode", "extrinsic", "--embedding", "donut:2"],
     "--embedding donut:<R>:<r> needs two numbers, got '2'"),
    (["--mode", "extrinsic", "--embedding", "donut:2:1:3"],
     "--embedding donut:<R>:<r> needs two numbers, got '2:1:3'"),
    (["--density", "cosine"], "--density cosine:<alpha>:<axis> needs one number, got ''"),
    (["--density", "cosine::v"], "--density cosine:<alpha>:<axis> needs one number, got ''"),
]


@pytest.mark.parametrize("argv, message", _NUMERIC_SELECTOR_ERRORS,
                         ids=[argv[-1] for argv, _ in _NUMERIC_SELECTOR_ERRORS])
def test_numeric_selector_errors_name_the_flag_and_grammar(tmp_path, capsys, argv, message):
    rc = main(["assemble", "--grid", "4", *argv, "--out", str(tmp_path / "x.llop")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_failed_assemble_write_leaves_the_old_operator(tmp_path, capsys, monkeypatch):
    # the disk fills while the entries are written: the old file keeps its bytes
    import errno

    from laplab import operators

    out = tmp_path / "op.llop"
    assert main(["assemble", "--grid", "8", "--out", str(out)]) == 0
    old = out.read_bytes()
    calls = []
    contiguous = np.ascontiguousarray

    def fill_the_disk(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return contiguous(*args, **kwargs)

    save = operators.save_operator

    def save_until_the_disk_fills(op, path):
        with monkeypatch.context() as m:
            m.setattr(np, "ascontiguousarray", fill_the_disk)
            save(op, path)

    monkeypatch.setattr(operators, "save_operator", save_until_the_disk_fills)
    capsys.readouterr()
    rc = main(["assemble", "--grid", "16", "--out", str(out)])
    assert rc == 2 and len(calls) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".laplab-" not in err
    assert out.read_bytes() == old
    assert os.listdir(tmp_path) == ["op.llop"]  # no staging directory left


def test_assemble_out_ending_in_a_separator_exits_two_before_building(tmp_path, capsys,
                                                                      monkeypatch):
    from laplab import operators

    def build_operator(*args, **kwargs):
        raise AssertionError("build_operator ran")

    monkeypatch.setattr(operators, "build_operator", build_operator)
    rc = main(["assemble", "--grid", "4", "--out", str(tmp_path / "d") + os.sep])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_assemble_makes_a_missing_output_directory(tmp_path):
    out = tmp_path / "a" / "b" / "op.llop"
    assert main(["assemble", "--grid", "4", "--out", str(out)]) == 0
    assert os.listdir(out.parent) == ["op.llop"]


# --- verify exit codes -----------------------------------------------------------


def test_verify_pass_exits_zero(tmp_path):
    assert main(["verify", "--scenario", "S4", "--grid", "16",
                 "--out", str(tmp_path)]) == 0
    assert os.listdir(tmp_path) == ["S4.json"]


def test_verify_scenario_failure_exits_one(capsys):
    # a vanishing bandwidth drives both intrinsic operators to numerical
    # zero, so their separation cannot clear the S1 threshold
    rc = main(["verify", "--scenario", "S1", "--grid", "16",
               "--bandwidth", "0.001"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_s6_holds_from_grid_24_at_the_default_bandwidth(tmp_path, capsys):
    # t = 0.5: at grid 20 the donut's Richardson stencil has lost its edges (exit 3,
    # no report), at grid 22 the Clifford and donut errors sit just above their gates
    out = tmp_path / "g20"
    assert main(["verify", "--scenario", "S6", "--grid", "20", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "no full stencil on the donut's outer circle" in err and err.count("\n") == 1
    assert not out.exists()
    errors = {}
    for grid, rc in ((22, 1), (24, 0)):
        out = tmp_path / f"g{grid}"
        assert main(["verify", "--scenario", "S6", "--grid", str(grid), "--out", str(out)]) == rc
        errors[grid] = json.loads((out / "S6.json").read_text())["discrepancies"]
    assert errors[22]["clifford_metric_max_error"] == pytest.approx(1.149e-3, rel=1e-3)
    assert errors[22]["donut_tube_max_error"] == pytest.approx(1.034e-2, rel=1e-3)
    assert errors[24]["clifford_metric_max_error"] <= 1e-3
    assert errors[24]["donut_tube_max_error"] <= 1e-2


def test_verify_unknown_scenario_exits_two():
    assert main(["verify", "--scenario", "S99"]) == 2


@pytest.mark.parametrize("argv", [
    ["assemble", "--grid={grid}", "--out", "{out}/x.llop"],
    ["verify", "--scenario", "S1", "--grid={grid}", "--out", "{out}/v"],
], ids=["assemble", "verify"])
def test_grid_above_the_dense_cap_exits_two_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                                argv):
    # each 100000 x 100000 meshgrid of the grid would take 75 GiB; the spy stops any
    # build, and lets the real builder refuse a negative grid, which it does unbuilt
    from laplab import operators

    real = operators.build_grid

    def build_grid(metric, n):
        if n > 0:
            raise AssertionError(f"build_grid ran for grid {n}")
        return real(metric, n)

    monkeypatch.setattr(operators, "build_grid", build_grid)
    for grid, message in ((66, "dense assembly is capped at 4096 nodes"),
                          (100000, "dense assembly is capped at 4096 nodes"),
                          (-66, "grid size must be even and >= 4, got -66"),
                          (-70, "grid size must be even and >= 4, got -70")):
        assert main([a.format(out=tmp_path, grid=grid) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["converge", "--n", "100,200,400", "--seeds", "5", "--bandwidth", "1e-100",
     "--out", "{out}/c.csv"],
    ["verify", "--scenario", "S5", "--bandwidth", "1e-100", "--out", "{out}"],
])
def test_failed_convergence_study_leaves_no_file(tmp_path, capsys, argv):
    # every kernel weight underflows, so the Monte-Carlo errors are all 0
    rc = main([a.replace("{out}", str(tmp_path)) for a in argv])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_out_of_memory_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # e.g. converge --n 1000,2000,4000000000, whose cloud numpy cannot allocate
    from laplab import verify

    def sample_points(*args):
        raise MemoryError("Unable to allocate 59.6 GiB for an array")

    monkeypatch.setattr(verify, "sample_points", sample_points)
    out = tmp_path / "d"
    out.mkdir()
    rc = main(["converge", "--n", "100,200,400", "--seeds", "5", "--out", str(out / "c.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: out of memory: Unable to allocate 59.6 GiB for an array\n"
    assert "Traceback" not in err and os.listdir(out) == []


@pytest.mark.parametrize("existing", [False, True], ids=["new_dir", "existing_dir"])
def test_failed_verify_all_leaves_its_directory_as_it_was(tmp_path, capsys, monkeypatch,
                                                          existing):
    # at grid 16 S1-S5 pass, then S6 finds no full stencil on the donut's outer
    # circle: no report reaches out, a report there before keeps its bytes, and
    # a file that something else saves in out while the run goes on stays
    from laplab import verify

    out = tmp_path / "d" if existing else tmp_path / "a" / "d"
    if existing:
        out.mkdir()
        (out / "S1.json").write_text("old")
    run_scenario = verify.run_scenario

    def run_while_a_file_is_saved(cfg):
        if cfg.scenario == "S3":
            out.mkdir(parents=True, exist_ok=True)
            (out / "other.txt").write_text("not a report")
        return run_scenario(cfg)

    monkeypatch.setattr(verify, "run_scenario", run_while_a_file_is_saved)
    rc = main(["verify", "--scenario", "all", "--grid", "16", "--seed", "3",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert sorted(os.listdir(out)) == (["S1.json", "other.txt"] if existing else ["other.txt"])
    assert (out / "other.txt").read_text() == "not a report"
    if existing:
        assert (out / "S1.json").read_text() == "old"
    assert os.listdir(tmp_path) == [out.relative_to(tmp_path).parts[0]]  # no staging left


@pytest.mark.parametrize("clash", ["c.csv", "s5_reference.json"])
def test_converge_that_cannot_write_a_file_leaves_no_new_file(tmp_path, capsys, clash):
    # the study succeeds, then one of its two file names is a directory in out:
    # the other file does not land either
    (tmp_path / clash).mkdir()
    rc = main(["converge", "--n", "100,200,400", "--seeds", "5",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".laplab-" not in err
    assert os.listdir(tmp_path) == [clash] and os.listdir(tmp_path / clash) == []


def test_converge_out_ending_in_a_separator_exits_two(tmp_path, capsys):
    rc = main(["converge", "--n", "100,200,400", "--seeds", "5",
               "--out", str(tmp_path / "sub") + os.sep])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1 and ".laplab-" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("case", ["new_dir", "existing_dir", "file", "under_a_file", "empty"])
def test_failed_externalized_recover_leaves_its_directory_as_it_was(tmp_path, capsys, case):
    # with --out a directory the report fails after both matrices are written:
    # neither reaches the externalize directory, and files there keep their
    # bytes; an externalize path that cannot be a directory is refused before
    # the report is written
    op_path, ext, out = tmp_path / "op.llop", tmp_path / "ext", tmp_path / "outdir"
    assert main(["assemble", "--grid", "8", "--out", str(op_path)]) == 0
    names = ["recovery_distance.llmx", "recovery_kernel.llmx"]
    if case in ("file", "under_a_file", "empty"):
        ext.write_bytes(b"old")
        out = tmp_path / "r.json"
    else:
        out.mkdir()
    if case == "existing_dir":
        ext.mkdir()
        for name in names:
            (ext / name).write_bytes(b"old")
    capsys.readouterr()
    where = {"under_a_file": str(ext / "mx"), "empty": ""}.get(case, str(ext))
    argv = ["recover", "--operator", str(op_path), "--externalize", where]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".laplab-" not in err
    if case in ("file", "under_a_file", "empty"):
        assert ext.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["ext", "op.llop"]
        return
    if case == "existing_dir":
        assert sorted(os.listdir(ext)) == names
        assert all((ext / name).read_bytes() == b"old" for name in names)
    else:
        assert not ext.exists()
    assert os.listdir(out) == []
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert sorted(os.listdir(ext)) == names
    assert sorted(os.listdir(tmp_path)) == ["ext", "op.llop", "outdir", "r.json"]


def test_recover_whose_matrices_cannot_land_writes_no_report(tmp_path, capsys):
    # the clash shows only when the matrices move; the report is held back too
    op_path, ext, out = tmp_path / "op.llop", tmp_path / "ext", tmp_path / "r.json"
    assert main(["assemble", "--grid", "8", "--out", str(op_path)]) == 0
    (ext / "recovery_kernel.llmx").mkdir(parents=True)
    capsys.readouterr()
    assert main(["recover", "--operator", str(op_path), "--externalize", str(ext),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".laplab-" not in err
    assert sorted(os.listdir(tmp_path)) == ["ext", "op.llop"]
    assert os.listdir(ext) == ["recovery_kernel.llmx"]
    assert os.listdir(ext / "recovery_kernel.llmx") == []


@pytest.mark.parametrize("out, ext", [
    ("out/r.json", "out/r.json"),
    ("out/r.json", "out/r.json/x"),
    ("out/recovery_kernel.llmx/r.json", "out"),
])
def test_recover_refuses_a_file_where_an_output_directory_goes(tmp_path, capsys, monkeypatch,
                                                               out, ext):
    # a file whose path is, or lies above, an output directory is refused
    # before any output directory is made
    monkeypatch.chdir(tmp_path)
    assert main(["assemble", "--grid", "4", "--out", "op.llop"]) == 0
    capsys.readouterr()
    assert main(["recover", "--operator", "op.llop", "--out", out, "--externalize", ext]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".laplab-" not in err
    assert os.listdir(tmp_path) == ["op.llop"]


@pytest.mark.parametrize("ext", ["q", "link"])
def test_recover_refuses_a_report_and_a_matrix_with_one_path(tmp_path, capsys, monkeypatch,
                                                             ext):
    # the report is named as the kernel file of the externalize directory,
    # there or through a link to it: one would replace the other, so neither
    # lands and no output directory is made
    monkeypatch.chdir(tmp_path)
    assert main(["assemble", "--grid", "4", "--out", "op.llop"]) == 0
    if ext == "link":
        os.symlink("q", "link")
    capsys.readouterr()
    assert main(["recover", "--operator", "op.llop", "--out", "q/recovery_kernel.llmx",
                 "--externalize", ext]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and ".laplab-" not in err
    assert sorted(os.listdir(tmp_path)) == (["link", "op.llop"] if ext == "link" else ["op.llop"])


def test_recover_out_ending_in_a_separator_exits_two(tmp_path, capsys):
    op_path = tmp_path / "op.llop"
    assert main(["assemble", "--grid", "8", "--out", str(op_path)]) == 0
    capsys.readouterr()
    assert main(["recover", "--operator", str(op_path),
                 "--out", str(tmp_path / "d") + os.sep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["op.llop"]


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


def _put_coupled_kernel_f(path):
    # F, the second kernel parameter, at bytes 53:61: a coupled torus metric
    blob = bytearray(path.read_bytes())
    blob[53:61] = np.array([0.7], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))


def _put_byte(at, value, what):
    def put(path):
        blob = bytearray(path.read_bytes())
        blob[at] = value
        path.write_bytes(bytes(blob))

    put.__name__ = f"_put_{what}"
    return put


def _put_band(index, value):
    # header floats t, du, dv start after the 20-byte fixed header
    def put(path):
        blob = bytearray(path.read_bytes())
        blob[20 + 8 * index:28 + 8 * index] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))

    put.__name__ = f"_put_band_{index}_{value}"
    return put


def _put_node_off_grid(path):
    # node 5 moves one ulp in v, off the grid build_grid makes
    blob = bytearray(path.read_bytes())
    at = 94 + 16 * 5 + 8
    v = np.frombuffer(bytes(blob[at:at + 8]), dtype="<f8")[0]
    blob[at:at + 8] = np.array([np.nextafter(v, 4.0)], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("corrupt", [
    _put_nan_entry, _put_grid_shape_8x9, _put_empty_grid, _append_bytes,
    _put_band(0, np.nan), _put_band(0, -0.5), _put_band(1, np.inf), _put_band(2, 0.0),
    _put_band(0, 1e160), _put_negative_kernel_e,
    _put_band(1, 0.5), _put_band(1, 2.225e-311), _put_node_off_grid, _put_coupled_kernel_f,
    # the measure block's kind byte follows the 25-byte kernel block; the u16
    # version sits at byte 4 and the chart tag at byte 7
    _put_byte(69, 7, "unknown_metric_kind"), _put_byte(4, 2, "version_2"),
    _put_byte(7, 1, "sphere_chart_tag"),
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


# (metric, embedding) on different charts, and the legal same-chart pair whose
# .llop gets the mismatched embedding's kernel block (kind and three parameters)
_CHART_PROBES = {
    "sphere_on_flat": ("flat", "sphere", "clifford", (12, 0.0, 0.0, 0.0)),
    "clifford_on_sphere": ("sphere:1", "clifford", "sphere", (10, 0.0, 0.0, 0.0)),
    "donut_on_sphere": ("sphere:1", "donut:2:1", "sphere", (11, 2.0, 1.0, 0.0)),
}


@pytest.mark.parametrize("probe", sorted(_CHART_PROBES))
def test_kernel_on_another_chart_than_the_measure_is_refused(tmp_path, capsys, probe):
    import struct

    metric, embedding, legal, block = _CHART_PROBES[probe]
    argv = ["assemble", "--mode", "extrinsic", "--metric", metric, "--density", "uniform",
            "--grid", "16", "--bandwidth", "0.5"]
    capsys.readouterr()
    assert main(argv + ["--embedding", embedding, "--out", str(tmp_path / "x.llop")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []

    op_path = tmp_path / "op.llop"
    assert main(argv + ["--embedding", legal, "--out", str(op_path)]) == 0
    blob = bytearray(op_path.read_bytes())
    blob[44:69] = struct.pack("<Bddd", *block)  # the kernel block follows the 44-byte header
    op_path.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = main(["recover", "--operator", str(op_path), "--out", str(tmp_path / "r.json")])
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


def test_unknown_embedding_exits_two_with_one_line(tmp_path, capsys):
    rc = main(["assemble", "--grid", "4", "--mode", "extrinsic", "--embedding", "torus",
               "--out", str(tmp_path / "x.llop")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown embedding 'torus'\n"
    assert os.listdir(tmp_path) == []


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
    ["assemble", "--grid", "4", "--mode", "extrinsic", "--embedding", "donut:inf:2"],
    ["assemble", "--grid", "4", "--mode", "extrinsic", "--embedding", "donut:1e300:2"],
    ["converge", "--n", "500,1000,2000", "--seeds", "5", "--bandwidth", "1e300"],
], ids=lambda argv: argv[-1])
def test_unrepresentable_scale_exits_two_with_one_line(tmp_path, argv):
    # t^2, r^2 or a squared chord overflows or underflows: no traceback, no
    # warning, no file
    proc = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("metric", [
    "scaled:1e154", "scaled:1e-160", "scaled:1e-200",
    "aniso:1e-200", "aniso:1e-170", "aniso:1e-320", "aniso:1e200",
], ids=lambda metric: metric.removeprefix("scaled:"))
def test_unrepresentable_torus_scale_names_the_scale(tmp_path, metric):
    # E G overflows or underflows while the form is round (ratio 1) and definite,
    # or the factor's square or its inverse is 0 or infinite
    proc = run_cli("assemble", "--grid", "4", "--metric", metric,
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert ("anisotropy factor" if metric.startswith("aniso") else "scale") in proc.stderr
    assert "ratio" not in proc.stderr and "definite" not in proc.stderr
    assert os.listdir(tmp_path) == []


def test_overflowing_kernel_exponent_prints_only_the_underflow_warning(tmp_path):
    # squared distance / t overflows at this radius; exp of it is 0 either way
    proc = run_cli("assemble", "--grid", "4", "--metric", "sphere:3.7e153",
                   "--out", str(tmp_path / "x.llop"))
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: 12 rows") and proc.stderr.count("\n") == 1


def test_underflowed_rows_warn_on_stderr_and_exit_zero(tmp_path, capsys):
    # every off-diagonal kernel weight of the grid-8 torus underflows at t = 1e-4
    assert main(["assemble", "--grid", "8", "--bandwidth", "1e-4",
                 "--out", str(tmp_path / "x.llop")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: 64 rows have fully underflowed") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["x.llop"]


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
    ({"threads": "2"}, 0),  # no such flag: ignored, as any unknown key
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
    ({"threads": 0}, 0),
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


def test_config_nested_too_deeply_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    assert main(["--config", str(cfg), "assemble", "--out", str(tmp_path / "x.llop")]) == 2
    assert capsys.readouterr().err == "error: config file nests too deeply\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_config_refine_takes_a_boolean(tmp_path, capsys):
    op_path, cfg = tmp_path / "op.llop", tmp_path / "cfg.json"
    assert main(["assemble", "--grid", "8", "--density", "cosine:0.4:u",
                 "--out", str(op_path)]) == 0
    recover = ["recover", "--operator", str(op_path), "--out"]
    cfg.write_text(json.dumps({"refine": 1}))
    capsys.readouterr()
    assert main(["--config", str(cfg), *recover, str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == "error: config 'refine' must be true or false\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "op.llop"]
    cfg.write_text(json.dumps({"refine": True}))
    assert main(["--config", str(cfg), *recover, str(tmp_path / "a.json")]) == 0
    assert main([*recover, str(tmp_path / "b.json"), "--refine"]) == 0
    assert main([*recover, str(tmp_path / "c.json")]) == 0
    a, b, c = ((tmp_path / f"{x}.json").read_bytes() for x in "abc")
    assert a == b != c


# --- converge ---------------------------------------------------------------------


def test_converge_writes_csv_with_slope_footer(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["converge", "--n", "500,2000,8000", "--seeds", "5",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "s5_reference.json"]
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


@pytest.mark.parametrize("argv", [
    ("converge", "--n", "100,200,400", "--seeds", "5", "--bandwidth", "1e-100"),
    ("converge", "--n", "100,200,400", "--seeds", "5", "--bandwidth", "1e100"),
    ("verify", "--scenario", "S5", "--bandwidth", "1e-100"),
])
def test_degenerate_convergence_errors_exit_three(tmp_path, argv):
    # every mean error is exactly 0, so the log-log slope does not exist
    out = tmp_path / ("c.csv" if argv[0] == "converge" else "s5")
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: mean Monte-Carlo errors (0.0, ")
    assert proc.stderr.count("\n") == 1 and f"bandwidth {float(argv[-1])}" in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


def test_converge_rejects_short_n_list(tmp_path):
    rc = main(["converge", "--n", "500,2000", "--seeds", "5",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2


# --- no threads flag ---------------------------------------------------------------


def test_threads_flag_is_an_unknown_argument(tmp_path):
    proc = run_cli("--threads", "1", "assemble", "--grid", "8",
                   "--out", str(tmp_path / "op.llop"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ") and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


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


# selector fields at the edges of parsing and of float64, and a few usable ones
_NUMBERS = st.sampled_from([
    "", "nan", "inf", "-inf", "0", "-0", "5e-324", "1e-310", "1e-300", "1e300",
    "-1e300", "0.3", "1.5", "2",
])


def _selector(heads, *fields):
    """'head' or 'head:f1:...' with up to len(fields) fields drawn from fields."""
    def join(head, values):
        return ":".join([head, *values])
    return st.one_of(st.sampled_from(heads), *(
        st.builds(join, st.sampled_from(heads), st.tuples(*fields[:k]))
        for k in range(1, len(fields) + 1)))


@given(mode=st.sampled_from(["intrinsic", "extrinsic"]),
       metric=_selector(["aniso", "scaled", "sphere", "flat", ""], _NUMBERS),
       embedding=st.one_of(st.none(),
                           _selector(["donut", "clifford", "sphere", ""], _NUMBERS, _NUMBERS)),
       density=_selector(["cosine", "uniform", ""], _NUMBERS, st.sampled_from(["u", "v", ""])),
       bandwidth=_NUMBERS)
def test_fuzzed_assemble_selectors_never_traceback(tmp_path_factory, mode, metric,
                                                   embedding, density, bandwidth):
    work = tmp_path_factory.mktemp("asm")
    # an embedding is passed, or not, in either mode
    chosen = [] if embedding is None else [f"--embedding={embedding}"]
    rc, err = _main_quietly([
        "assemble", "--grid", "4", f"--mode={mode}", f"--metric={metric}", *chosen,
        f"--density={density}", f"--bandwidth={bandwidth}", "--out", str(work / "x.llop")])
    assert rc in (0, 2, 3)
    if mode == "intrinsic" and chosen:
        assert rc == 2
    if rc:
        # laplab's own errors are one line; argparse's lead with the usage text
        assert err.count("\n") == 1 or err.startswith("usage: laplab assemble")
        assert os.listdir(work) == []


@pytest.fixture(scope="module")
def block_operators():
    """Operators of more than 64 nodes, so every pass over them crosses row blocks."""
    from laplab.discretization import CosineBump
    from laplab.geometry import SphereMetric, TorusMetric, UnitSphere
    from laplab.operators import build_operator

    aniso, sphere = TorusMetric.anisotropic(1.5), SphereMetric(1.0)
    cases = ((aniso, None, 10), (sphere, UnitSphere(), 10))
    ops = [build_operator(metric, CosineBump(0.3, "u"), grid, 0.5, embedding)[0]
           for metric, embedding, grid in cases]
    assert all(op.n > 64 for op in ops)
    return ops


_ENTRY_FAULTS = st.lists(st.tuples(
    st.sampled_from(["nan", "inf", "-inf", "positive", "zero_row", "tiny_negative"]),
    st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3)


def _corrupt(op, faults):
    """A copy of op's entries with each fault applied at (i, j) off the diagonal."""
    entries = op.entries.copy()
    for kind, a, b in faults:
        i, j = a % op.n, b % op.n
        j = (j + 1) % op.n if i == j else j
        if kind == "zero_row":
            entries[i] = 0.0
        elif kind in ("positive", "tiny_negative"):
            # a kernel weight of -1e-3, or of -5e-15 (inside the rounding
            # tolerance); the diagonal keeps the row sum at zero
            value = 1e-3 if kind == "positive" else 5e-15 / op.t**2
            entries[i, i] += entries[i, j] - value
            entries[i, j] = value
        else:
            entries[i, j] = float(kind)
    return entries


@given(which=st.sampled_from([0, 1]), faults=_ENTRY_FAULTS,
       externalize=st.booleans(), refine=st.booleans())
def test_fuzzed_operator_entries_never_traceback(tmp_path_factory, block_operators, which,
                                                 faults, externalize, refine):
    import dataclasses

    from laplab.operators import save_operator

    op = block_operators[which]
    work = tmp_path_factory.mktemp("entries")
    save_operator(dataclasses.replace(op, entries=_corrupt(op, faults)), work / "op.llop")
    argv = ["recover", "--operator", str(work / "op.llop"), "--out", str(work / "r.json")]
    argv += ["--externalize", str(work / "mx")] if externalize else []
    argv += ["--refine"] if refine else []
    rc, err = _main_quietly(argv)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    if rc:
        assert err.count("\n") == 1
        assert not (work / "r.json").exists()
    else:
        assert (work / "r.json").exists()


# --n fields: empty, zero, negative, float and NaN spellings, and sizes of at
# most 64, so that no draw samples a large cloud
_N_FIELDS = st.one_of(st.sampled_from(["", "0", "-0", "1e3", "nan", "-inf", " 8"]),
                      st.integers(-64, 64).map(str))
_SEED_VALUES = st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**80),
                         st.integers(0, 2**64 - 1))
# usable seed counts and bandwidths come first: hypothesis favours early
# elements of sampled_from, and draws that reach the sampler are the rarer ones
_BANDWIDTHS = st.sampled_from([
    "0.5", "nan", "0.3", "inf", "1e-150", "-inf", "1e150", "0", "0.01", "-0", "2",
    "5e-324", "1e-310", "1e-300", "1e300", "-1e300",
])


# increasing lists of usable sizes reach the sampler; the rest stop earlier
_N_LISTS = st.one_of(
    st.lists(st.integers(1, 64), min_size=3, max_size=4, unique=True).map(sorted),
    st.lists(st.integers(-64, 64), min_size=3, max_size=4, unique=True).map(sorted),
    st.lists(_N_FIELDS, max_size=5),
).map(lambda fields: ",".join(map(str, fields)))


@given(n=_N_LISTS, seeds=st.sampled_from([5, 6, 7, 0, 1, 2, 3, 4]),
       bandwidth=_BANDWIDTHS, seed=_SEED_VALUES)
def test_fuzzed_converge_never_tracebacks(tmp_path_factory, n, seeds, bandwidth, seed):
    work = tmp_path_factory.mktemp("conv")
    rc, err = _main_quietly([
        "converge", f"--n={n}", f"--seeds={seeds}", f"--bandwidth={bandwidth}",
        f"--seed={seed}", "--out", str(work / "c.csv")])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    if rc:
        assert err.count("\n") == 1
        assert os.listdir(work) == []
    else:
        assert (work / "c.csv").exists()


# verify flags at the edges of parsing, and usable ones: S1-S4 and S6 at grids
# 4 and 6, so that no draw runs long (S5 and "all" run the full default
# convergence study); the two that recover, and write arrays, come first
_VERIFY_FLAGS = {
    "scenario": (["S2", "S6", "S1", "S3", "S4"], ["", "S7", "s1", "S", "nan", "S1 ", "inf"]),
    "grid": (["4", "6"], ["", "nan", "inf", "-inf", "0", "-0", "3", "5", "-4", "1", "2", "1e3",
                          "5e-324"]),
    "bandwidth": (["0.5", "2", "0.3", "0.01", "1e-150"],
                  ["", "nan", "inf", "-inf", "0", "-0", "5e-324", "1e-310", "1e-300", "1e300",
                   "-1e300", "1e150"]),
    "seed": (["1234", "0", "-1", str(2**64), str(-(2**70))], ["", "nan", "1.5", "-0.0", "1e300"]),
}


@st.composite
def _verify_argv(draw):
    """verify flags with at most two of them drawn from the bad values, so that
    runs which reach a scenario are as common as runs that stop at a flag."""
    broken = draw(st.sets(st.sampled_from(sorted(_VERIFY_FLAGS)), max_size=2))
    return [f"--{flag}={draw(st.sampled_from(values[flag in broken]))}"
            for flag, values in _VERIFY_FLAGS.items()]


@given(flags=_verify_argv())
def test_fuzzed_verify_never_tracebacks(tmp_path_factory, flags):
    out_dir = tmp_path_factory.mktemp("verify") / "out"
    scenario = flags[0].partition("=")[2]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", *flags, "--out", str(out_dir)])
    err = err.getvalue()
    # 1 is a scenario that ran and missed its thresholds; its report is written
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if rc == 1:
        assert "FAIL" in out.getvalue() and err == ""
    if rc in (0, 1):
        assert (out_dir / f"{scenario}.json").exists()
    else:
        # laplab's own errors are one line; argparse's lead with the usage text
        assert err.count("\n") == 1 or err.startswith("usage: laplab verify")
        assert not out_dir.exists() or os.listdir(out_dir) == []
