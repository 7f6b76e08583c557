"""laplab benchmark: time the assemble, recover and converge commands.

    python3 perfbench/run.py --workload assemble --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Each run

1. builds the workload's command batch from --seed (workloads.py);
2. sets up several times, each in a fresh process (imports plus input
   generation; for recover that includes assembling the operators it reads),
   and reports the median as setup_s;
3. runs the batch in a fresh process, checks every command's output
   (oracles.py) and deletes it, and repeats until the batches have taken
   --seconds in total; wall_s and peak_rss_mib are medians over batches;
4. with --trace 1, then runs one more batch with every public function of
   the package wrapped (tracing.py), writes the spans under .perfbench_out/,
   and reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A command counts as failed when it raises,
exits non-zero or fails its output check; fail_ratio = failed / attempted is
printed on the summary line above it.  BLAS pools are pinned to one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Setup is repeated at least SETUP_MIN times and, when it is cheap, until
# SETUP_MIN_S seconds of it have been timed (at most SETUP_MAX times), so
# that the median of a few-hundred-millisecond import is not one sample.
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 3, 1.5, 15
WORKER_TIMEOUT_S = 170


def _worker(*args) -> dict:
    """Run worker.py to completion; return its result (None if it died)."""
    result_path = args[-1] if args[0] == "setup" else args[4]
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    try:
        with open(result_path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        sys.stderr.write(f"worker {args[0]} exited {proc.returncode} without a "
                         f"result:\n{proc.stderr[-2000:]}\n")
        return None


def _setup(spec_path, inputs) -> tuple[float, list]:
    times, failures = [], []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX):
        shutil.rmtree(inputs, ignore_errors=True)
        res = _worker("setup", spec_path, inputs, os.path.join(WORK, "setup.json"))
        if res is None:
            raise RuntimeError("setup process failed")
        times.append(res["import_s"] + res["inputs_s"])
        failures = res["failures"]
    return statistics.median(times), failures


def _batch(spec, spec_path, inputs, index, seed, spans_path=None):
    """One timed batch plus its output checks; returns (result, failures)."""
    import oracles

    out = os.path.join(WORK, f"batch{index}")
    shutil.rmtree(out, ignore_errors=True)
    args = ["batch", spec_path, inputs, out, os.path.join(WORK, f"batch{index}.json")]
    if spans_path:
        args += ["--trace", spans_path]
    t0 = time.perf_counter()
    res = _worker(*args)
    elapsed = time.perf_counter() - t0
    n = len(spec["commands"])
    if res is None:
        res = {"wall_s": elapsed, "peak_rss_mib": float("nan"), "ok": [False] * n,
               "details": ["batch process died"] * n, "threads": -1, "blas": "?"}
    failures = []
    for k, cmd in enumerate(spec["commands"]):
        problems = [] if res["ok"][k] else [res["details"][k]]
        if not problems:
            problems = oracles.check_command(out, cmd["check"], seed * 1009 + k)
        if cmd["check"]["kind"] == "convergence" and not problems:
            problems = oracles.check_rng(_generator(), cmd["check"])
        if problems:  # one entry per failed command
            failures.append(f"command {k} ({cmd['argv'][0]}): " + "; ".join(problems))
    shutil.rmtree(out, ignore_errors=True)
    return res, failures


def _generator():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from laplab.rng import Xorshift64Star

    return Xorshift64Star


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "laplab", "__init__.py")):
        raise FileNotFoundError(f"no laplab package under {SRC}")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        t0 = time.perf_counter()
        spec = workloads.make_spec(workload, seed, tiny)
        spec_path = os.path.join(WORK, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        spec_s = time.perf_counter() - t0
        inputs = os.path.join(WORK, "inputs")
        setup_s, setup_failures = _setup(spec_path, inputs)
        setup_s += spec_s
        for f in setup_failures:
            print(f"setup failure: {f}", file=sys.stderr)

        walls, rss, failures, attempted = [], [], [], 0
        info = {}
        while not walls or sum(walls) < seconds:
            res, fails = _batch(spec, spec_path, inputs, len(walls), seed)
            walls.append(res["wall_s"])
            rss.append(res["peak_rss_mib"])
            attempted += len(spec["commands"])
            failures += fails
            info = res
        wall_s = statistics.median(walls)
        print(f"# {workload} seed={seed}: {len(walls)} batches of "
              f"{len(spec['commands'])} commands, batch walls "
              + ", ".join(f"{w:.3f}" for w in walls) + " s")
        print(f"# blas={info['blas']} pinned threads=1 process threads={info['threads']}")
        print(f"# wall_s={wall_s:.4f} s  peak_rss_mib={statistics.median(rss):.1f} MiB  "
              f"setup_s={setup_s:.4f} s  fail_ratio={len(failures) / attempted:.4f} "
              f"({len(failures)}/{attempted})")
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "peak_rss_mib": _metric(statistics.median(rss), "MiB"),
            "setup_s": _metric(setup_s, "s"),
        }
        if trace:
            metrics = _traced(spec, spec_path, inputs, len(walls), seed, wall_s,
                              failures)
            attempted += len(spec["commands"])
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return {"correct": not failures, "attempted": attempted,
                "failed": len(failures), "metrics": metrics}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _traced(spec, spec_path, inputs, index, seed, untraced_wall, failures):
    import tracing

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{spec['workload']}-seed{seed}-spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    res, fails = _batch(spec, spec_path, inputs, index, seed, spans_path)
    failures += fails
    with open(spans_path) as fh:
        blob = json.load(fh)
    spans = [tuple(s) for s in blob["spans"]]
    metrics = tracing.layer_metrics(spans, blob["counters"], set(blob["installed"]))
    self_sum = sum(row["self_s"] for row in tracing.summarize(spans).values())
    traced_wall = res["wall_s"]
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.self_sum_s"] = _metric(self_sum, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    print(f"# traced wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
          f"sum of self times {self_sum:.4f} s; spans in {spans_path}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and sample sizes (for the self-test)")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
