"""Child process of the benchmark: one setup, or one timed batch.

    python3 perfbench/worker.py setup SPEC INPUTS RESULT
    python3 perfbench/worker.py batch SPEC INPUTS OUT RESULT [--trace SPANS]

`setup` imports the package and makes the workload's inputs (for recover,
the operators it reads), timing both.  `batch` imports the package, then
runs every command of the spec in order through `laplab.cli.main` and
times the whole batch; with --trace the public functions are wrapped first
and the spans are written to SPANS when the batch ends.  Both write one JSON
object to RESULT.  The peak RSS a batch reports is this process's own, so
setup and output checks, which run in other processes, never count in it.

The thread-pool variables are set before numpy is imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    """Import laplab from the checkout's src/ and every module it traces."""
    sys.path.insert(0, SRC)
    import laplab
    import laplab.cli  # noqa: F401  (the CLI imports its modules lazily)

    if not os.path.abspath(laplab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"laplab resolved outside {SRC}: {laplab.__file__}")
    return laplab


def _fill(argv, inputs, out):
    return [a.replace("{in}", inputs).replace("{out}", out) for a in argv]


def _run(main, argv):
    """Run one CLI command; return (ok, detail).  Never raises."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a command that raises is a failed command
        return False, traceback.format_exc(limit=4)
    if rc != 0:
        return False, f"exit code {rc}: {sink.getvalue()[-400:]}"
    return True, ""


def _threads() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: report what is known
        return "unknown"


def setup(spec, inputs, result_path):
    laplab = _import_package()
    t_import = time.perf_counter()
    os.makedirs(inputs, exist_ok=True)
    failures = []
    for argv in spec["setup"]:
        ok, detail = _run(laplab.cli.main, _fill(argv, inputs, inputs))
        if not ok:
            failures.append(detail)
    t_done = time.perf_counter()
    with open(result_path, "w") as fh:
        json.dump({"import_s": t_import - T_START, "inputs_s": t_done - t_import,
                   "failures": failures}, fh)


def batch(spec, inputs, out, result_path, spans_path=None):
    laplab = _import_package()
    tracer = None
    if spans_path:
        sys.path.insert(0, HERE)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(laplab)
    main = laplab.cli.main
    os.makedirs(out, exist_ok=True)
    commands = [_fill(c["argv"], inputs, out) for c in spec["commands"]]
    outcomes = []
    t0 = time.perf_counter()
    for k, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = k
        outcomes.append(_run(main, argv))
    wall = time.perf_counter() - t0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "wall_s": wall,
        "peak_rss_mib": rss_kib / 1024.0,
        "ok": [ok for ok, _ in outcomes],
        "details": [d for _, d in outcomes],
        "threads": _threads(),
        "blas": _blas(),
    }
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters,
                       "installed": sorted(tracer.installed)}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode, spec_path = argv[0], argv[1]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "setup":
        setup(spec, argv[2], argv[3])
    elif mode == "batch":
        spans = argv[6] if len(argv) > 6 and argv[5] == "--trace" else None
        batch(spec, argv[2], argv[3], argv[4], spans)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
