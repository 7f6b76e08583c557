"""Command line front end.

Subcommands:

    assemble   build one operator matrix and save it (binary, .llop)
    recover    load an operator, run recovery, write a JSON report
    verify     run scenarios S1..S6 (or one of them), write reports
    converge   Monte-Carlo convergence study, write a CSV

Exit codes: 0 success / all scenarios pass, 1 scenario failure,
2 bad usage or invalid parameters, 3 numerical failure during recovery.

--config points at a JSON file whose keys become the chosen command's
defaults; flags given on the command line win.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile

from . import discretization, geometry, identify, operators, verify
from .errors import NumericalError


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laplab",
        description="graph Laplace operators on tori and spheres: "
        "assembly, recovery, scenario verification",
    )
    ap.add_argument("--config", help="JSON file with default values for flags")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("assemble", help="build and save one operator matrix")
    a.add_argument("--mode", choices=("intrinsic", "extrinsic"), default="intrinsic")
    a.add_argument(
        "--metric",
        default="flat",
        help="flat | aniso:<a> | scaled:<c> | sphere:<R>",
    )
    a.add_argument(
        "--embedding",
        default=None,
        help="clifford | donut:<R>:<r> | sphere (extrinsic mode only)",
    )
    a.add_argument(
        "--density",
        default="uniform",
        help="uniform | cosine:<alpha>:<axis>",
    )
    a.add_argument("--grid", type=int, default=32)
    a.add_argument("--bandwidth", type=float, default=0.5)
    a.add_argument("--out", required=True, help="output .llop path")

    r = sub.add_parser("recover", help="run recovery on a saved operator")
    r.add_argument("--operator", required=True, help="input .llop path")
    r.add_argument("--out", required=True, help="output JSON report path")
    r.add_argument(
        "--externalize",
        default=None,
        help="directory for full matrices as .llmx instead of embedding",
    )
    r.add_argument("--refine", action="store_true",
                   help="least-squares mass refinement over all edges")

    v = sub.add_parser("verify", help="run standard scenarios")
    v.add_argument("--scenario", default="all",
                   help="S1..S6 or 'all'")
    v.add_argument("--grid", type=int, default=32)
    v.add_argument("--bandwidth", type=float, default=0.5)
    v.add_argument("--seed", type=int, default=1234)
    v.add_argument("--out", default=None, help="directory for JSON reports")

    c = sub.add_parser("converge", help="Monte-Carlo convergence study")
    c.add_argument("--n", default=",".join(map(str, verify.N_VALUES)),
                   help="comma-separated sample sizes")
    c.add_argument("--seeds", type=int, default=verify.N_SEEDS)
    c.add_argument("--bandwidth", type=float, default=0.5)
    c.add_argument("--seed", type=int, default=1234)
    c.add_argument("--out", required=True, help="output CSV path")
    return ap


def _merge_config(args: argparse.Namespace, argv: list[str],
                  parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Make the JSON config's values the chosen command's defaults and parse
    argv again, so that flags on the command line win in any spelling
    argparse accepts (--gri 4, --grid=4).

    Only long flags of the chosen command are read.  Each value goes through
    its flag's type and choices as the text it would have on the command
    line; on/off flags take JSON booleans.
    """
    if not args.config:
        return args
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:  # json's parser recurses once per nesting level
            raise ValueError("config file nests too deeply") from None
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    command = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    flags = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    for key, value in cfg.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config {key!r} must be true or false")
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            # argparse's own conversion, so errors read as on the command line
            try:
                value = parser._get_value(action, str(value))
                parser._check_value(action, value)
            except argparse.ArgumentError as exc:
                raise ValueError(f"config {key!r}: {exc}") from None
        else:
            raise ValueError(f"config {key!r} must be a string or a number")
        command.set_defaults(**{action.dest: value})
    return parser.parse_args(argv)


def _bare(text: str) -> None:
    """Refuse a selector that takes no parameter but came with one."""
    name, sep, _ = text.partition(":")
    if sep:
        raise ValueError(f"{name} takes no parameter, got {text!r}")


def _numbers(flag: str, grammar: str, text: str, count: int) -> list[float]:
    """text as count ':'-separated numbers, or an error naming flag and grammar."""
    parts = text.split(":")
    try:
        if len(parts) == count:
            return [float(part) for part in parts]
    except ValueError:
        pass
    need = ("one number", "two numbers")[count - 1]
    raise ValueError(f"{flag} {grammar} needs {need}, got {text!r}")


def _parse_metric(text: str):
    name, sep, rest = text.partition(":")
    if name == "flat":
        _bare(text)
        return geometry.TorusMetric.flat()
    if name == "aniso":
        return geometry.TorusMetric.anisotropic(*_numbers("--metric", "aniso:<a>", rest, 1))
    if name == "scaled":
        return geometry.TorusMetric.scaled_flat(*_numbers("--metric", "scaled:<c>", rest, 1))
    if name == "sphere":
        if not sep:
            return geometry.SphereMetric(1.0)
        return geometry.SphereMetric(*_numbers("--metric", "sphere:<R>", rest, 1))
    raise ValueError(f"unknown metric {text!r}")


def _parse_embedding(text: str):
    name, _, rest = text.partition(":")
    if name == "clifford":
        _bare(text)
        return geometry.CliffordTorus()
    if name == "donut":
        return geometry.DonutTorus(*_numbers("--embedding", "donut:<R>:<r>", rest, 2))
    if name == "sphere":
        _bare(text)
        return geometry.UnitSphere()
    raise ValueError(f"unknown embedding {text!r}")


def _parse_density(text: str):
    name, _, rest = text.partition(":")
    if name == "uniform":
        _bare(text)
        return discretization.UniformDensity()
    if name == "cosine":
        alpha, _, axis = rest.partition(":")
        return discretization.CosineBump(*_numbers("--density", "cosine:<alpha>:<axis>", alpha, 1),
                                         axis or "u")
    raise ValueError(f"unknown density {text!r}")


def _cmd_assemble(args) -> int:
    out_dir, name = _out_file(args.out)
    metric = _parse_metric(args.metric)
    if args.mode == "extrinsic" and args.embedding is None:
        raise ValueError("extrinsic mode needs --embedding")
    if args.mode == "intrinsic" and args.embedding is not None:
        raise ValueError("--embedding applies to extrinsic mode only")
    embedding = None if args.embedding is None else _parse_embedding(args.embedding)
    density = _parse_density(args.density)
    with _staged(out=out_dir) as (stage,):
        op = operators.build_operator(metric, density, args.grid, args.bandwidth, embedding)
        operators.save_operator(op, os.path.join(stage, name))
    print(f"wrote {args.out}: {op.n} nodes, t={op.t}, mode={args.mode}")
    if op.warning:
        print(f"warning: {op.warning}", file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    out_dir, name = _out_file(args.out)
    op = operators.load_operator(args.operator)
    report = identify.run_recovery(op, refine=args.refine)
    with _staged(out=out_dir, externalize=args.externalize) as (stage, mx):
        payload = identify.report_payload(report, externalize_dir=mx)
        verify.write_json(payload, os.path.join(stage, name))
    print(f"wrote {args.out}: {payload['n']} nodes, "
          f"{len(payload['metric']['indices'])} recovered tensors")
    return 0


def _out_file(out: str) -> tuple[str, str]:
    """--out as (directory, file name); empty, or ending in a separator, . or .., refused."""
    name = os.path.basename(out)
    if name in ("", ".", ".."):
        raise ValueError(f"--out {out} names a directory, not a file" if out else "--out is empty")
    return os.path.dirname(os.path.abspath(out)), name


def _existing_dir(out: str, flag: str) -> str:
    """The nearest existing directory at or above out, given by flag; an
    empty out, an existing file or a path under one is refused."""
    if not out:
        raise FileNotFoundError(f"{flag} is empty")
    parent = os.path.abspath(out)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise NotADirectoryError(f"{parent} is not a directory")
    return parent


@contextlib.contextmanager
def _staged(**outs):
    """Yield one staging directory per directory in outs, keyed by the flag
    that gives it, for the files a command writes there, and move them into
    their out (making it) only when the body returns.  Every destination of
    every stage is checked before the first out is made, so a command that
    fails leaves each out as it was: a destination that is a directory, or
    that is or lies above an out, is refused, as is one that two files would
    share.  A None out stages nothing and gets None.  An empty out, which the
    error names by its flag, an existing file or a path under one is refused
    before the body runs."""
    parents = [None if out is None else _existing_dir(out, "--" + flag)
               for flag, out in outs.items()]
    stages = []
    try:
        for parent in parents:
            stages.append(None if parent is None
                          else tempfile.mkdtemp(prefix=".laplab-", dir=parent))
        yield tuple(stages)
        moves = [(os.path.join(stage, name), os.path.join(out, name))
                 for out, stage in zip(outs.values(), stages) if stage
                 for name in sorted(os.listdir(stage))]
        dirs = [os.path.abspath(out) for out, stage in zip(outs.values(), stages) if stage]
        seen = set()
        for _, dst in moves:  # refuse before the first makedirs: all files land or none
            real = os.path.realpath(dst)
            if real in seen:
                raise FileExistsError(f"{dst} would be written twice")
            seen.add(real)
            if os.path.isdir(dst):
                raise IsADirectoryError(f"{dst} is a directory")
            at = os.path.abspath(dst)
            if any(os.path.commonpath([at, d]) == at for d in dirs):
                raise IsADirectoryError(f"{dst} would have to be a directory")
        for out, stage in zip(outs.values(), stages):
            if stage:
                os.makedirs(out, exist_ok=True)
        for src, dst in moves:
            os.replace(src, dst)
    finally:
        for stage in stages:
            if stage:
                shutil.rmtree(stage, ignore_errors=True)


def _cmd_verify(args) -> int:
    wanted = verify.SCENARIO_IDS if args.scenario == "all" else (args.scenario,)
    ok = True
    with _staged(out=args.out) as (stage,):
        for sid in wanted:
            result = verify.run_scenario(verify.ScenarioConfig(
                scenario=sid, grid=args.grid, bandwidth=args.bandwidth, seed=args.seed,
                out_dir=stage))
            status = "pass" if result.passed else "FAIL"
            detail = ", ".join(
                f"{k}={v:.3e}" for k, v in sorted(result.discrepancies.items())
            )
            print(f"{sid}: {status} ({detail})")
            ok = ok and result.passed
    return 0 if ok else 1


def _cmd_converge(args) -> int:
    try:
        n_values = tuple(int(s) for s in str(args.n).split(",") if s)
    except ValueError:
        raise ValueError(f"--n needs comma-separated integers, got {args.n!r}") from None
    out_dir, name = _out_file(args.out)
    with _staged(out=out_dir) as (stage,):
        study = verify.convergence_study(
            n_values=n_values,
            n_seeds=args.seeds,
            bandwidth=args.bandwidth,
            seed=args.seed,
            out_dir=stage,
        )
        study.to_csv(os.path.join(stage, name))
    print(f"wrote {args.out}: slope {study.slope:.3f}")
    return 0


_COMMANDS = {
    "assemble": _cmd_assemble,
    "recover": _cmd_recover,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0
    try:
        args = _merge_config(args, argv, parser)
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a request too large to hold, e.g. a huge --n or --seeds
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
