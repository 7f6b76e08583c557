"""Self-test of the benchmark itself (not of laplab).

    python3 perfbench/selftest.py

Checks, at tiny sizes, in well under a minute:

* seeds: the same seed regenerates the same argv; two seeds draw different
  parameters but the same commands;
* every workload runs, its outputs pass their checks, and the result line
  has the required keys, with every metric BENCHMARK.json names (end to
  end untraced, per layer traced);
* on a traced run the self times add up to the traced wall time;
* corrupted outputs are caught: a sign-flipped operator entry, a perturbed
  recovered mass, a wrong slope footer, an RNG stream one step off; a
  command that fails several checks counts as one failed command;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  fails with a non-zero exit code and prints no result.

Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_selftest")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES = []
PASSED = [0]


def check(cond, what):
    if cond:
        PASSED[0] += 1
    else:
        FAILURES.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def test_seeds():
    for w in workloads.WORKLOADS:
        a, b = workloads.make_spec(w, 7), workloads.make_spec(w, 7)
        check(json.dumps(a) == json.dumps(b), f"{w}: seed 7 regenerates its argv")
        c = workloads.make_spec(w, 8)
        check(len(c["commands"]) == len(a["commands"])
              and len(c["setup"]) == len(a["setup"]),
              f"{w}: seeds 7 and 8 give the same command count")
        check(sorted(x["argv"][0] for x in c["commands"])
              == sorted(x["argv"][0] for x in a["commands"]),
              f"{w}: seeds 7 and 8 run the same subcommands")
        check([x["check"] for x in a["commands"]] != [x["check"] for x in c["commands"]],
              f"{w}: seeds 7 and 8 draw different parameters")


def test_runs():
    spec = bench_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in workloads.WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            rc, lines, err = run_bench(w, trace)
            check(rc == 0 and lines, f"{w} trace={trace}: exits 0 ({err[-300:]})")
            if rc != 0 or not lines:
                continue
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace={trace}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} trace={trace}: outputs pass their checks")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} trace={trace}: metrics and units match "
                  f"BENCHMARK.json (diff {set(got) ^ set(want)})")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{w}: end-to-end metrics are positive")
            else:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                gap = m["trace.wall_s"] - m["trace.self_sum_s"]
                check(0.0 <= gap <= 0.02 * m["trace.wall_s"] + 1e-3,
                      f"{w}: self times add up to the traced wall ({gap:.4f} s apart)")
                check(m["cli.main.calls"] == len(workloads.make_spec(w, 5, True)["commands"]),
                      f"{w}: one cli.main span per command")


def _tiny_outputs():
    """Run one tiny command of each kind in-process; return their paths."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from laplab import cli

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with contextlib.redirect_stdout(io.StringIO()):
        return _run_tiny(cli)


def _run_tiny(cli):
    out = {}
    a = workloads.make_spec("assemble", 3, tiny=True)["commands"][0]
    cli.main([x.replace("{out}", SCRATCH) for x in a["argv"]])
    out["operator"] = a
    r = workloads.make_spec("recover", 3, tiny=True)
    for argv in r["setup"]:
        cli.main([x.replace("{in}", SCRATCH) for x in argv])
    cmd = next(c for c in r["commands"] if not c["check"]["externalize"])
    cli.main([x.replace("{in}", SCRATCH).replace("{out}", SCRATCH) for x in cmd["argv"]])
    out["report"] = cmd
    c = workloads.make_spec("converge", 3, tiny=True)["commands"][0]
    cli.main([x.replace("{out}", SCRATCH) for x in c["argv"]])
    out["convergence"] = c
    return out


def test_corruption():
    cmds = _tiny_outputs()
    from laplab.rng import Xorshift64Star

    op = cmds["operator"]["check"]
    path = os.path.join(SCRATCH, op["file"])
    check(oracles.check_operator(path, op["case"], 1) == [], "clean operator passes")
    n = len(oracles.grid_nodes(op["case"]))
    offset = os.path.getsize(path) - 8 * n * n + 8 * (2 * n + 5)  # entry (2, 5)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        (x,) = struct.unpack("<d", fh.read(8))
        fh.seek(offset)
        fh.write(struct.pack("<d", -x))
    check(oracles.check_operator(path, op["case"], 1) != [],
          "sign-flipped operator entry is caught")

    rep = cmds["report"]["check"]
    path = os.path.join(SCRATCH, rep["file"])
    check(oracles.check_report(path, rep) == [], "clean recovery report passes")
    with open(path) as fh:
        blob = json.load(fh)
    blob["mass"][3] *= 1.0 + 1e-6
    with open(path, "w") as fh:
        json.dump(blob, fh)
    check(oracles.check_report(path, rep) != [], "perturbed recovered mass is caught")

    conv = cmds["convergence"]["check"]
    path = os.path.join(SCRATCH, conv["file"])
    check(oracles.check_convergence(path, conv) == [], "clean convergence table passes")
    check(oracles.check_rng(Xorshift64Star, conv) == [], "package RNG matches xorshift64*")
    with open(path) as fh:
        text = fh.read()
    slope_line = text.strip().splitlines()[-1]
    with open(path, "w") as fh:
        fh.write(text.replace(slope_line, "slope,-0.9"))
    check(oracles.check_convergence(path, conv) != [], "wrong slope footer is caught")

    class OneStepOff(Xorshift64Star):
        def __init__(self, seed):
            super().__init__(seed)
            self.next_u64()

    check(oracles.check_rng(OneStepOff, conv) != [], "shifted RNG stream is caught")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def test_failure_count():
    import run

    real = oracles.check_command
    oracles.check_command = lambda out, chk, seed: ["first problem", "second problem"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            res = run.run("converge", 5, 0.0, False, True)
    finally:
        oracles.check_command = real
    check(res["attempted"] == 1 and res["failed"] == 1 and not res["correct"],
          "a command with two failed checks counts as one failure")


def test_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = run_bench("converge", 0, cwd=bare)
    check(rc != 0, "without the package the run exits non-zero")
    check(not any(line.startswith("{") for line in lines),
          "without the package no result is printed")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def test_catalog():
    names = [m["name"] for m in bench_json()["per_layer"]]
    check(set(names) == set(tracing.PER_LAYER) | {"trace.wall_s", "trace.self_sum_s",
                                                  "trace.overhead_s"},
          "BENCHMARK.json per_layer lists exactly the traced metrics")


def main():
    test_seeds()
    test_catalog()
    test_corruption()
    test_failure_count()
    test_bare_directory()
    test_runs()
    print(f"selftest: {PASSED[0]} checks passed, {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
