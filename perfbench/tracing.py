"""Span recording around laplab's public functions, from outside the package.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, on every laplab module attribute that refers to it: a caller
that did ``from .geometry import ambient_sq_dist`` looks the name up in its
own module, so that binding is replaced too.  Each call records one span
(name, start, end, parent span, command id).  Spans stay in memory until
the batch ends.

Work the tracer itself does between spans (starting and stopping
tracemalloc, counting mask entries) is recorded as a `trace.bookkeeping`
span, so that it does not show up as self time of the caller.

`layer_metrics` turns spans and counters into the per-layer numbers named
in PER_LAYER.  A metric whose function no longer exists in the package is
left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc

MODULES = ("geometry", "rng", "discretization", "operators", "identify",
           "verify", "cli")

# Methods traced in addition to module-level functions: (module, class, method).
METHODS = (("rng", "Xorshift64Star", "uniforms"),)

# Top-level pipeline calls whose tracemalloc peak is recorded.  Calls that
# allocate many small Python objects are left out, because tracemalloc would
# inflate their busy time several-fold: the RNG loop under converge, and
# report_payload turning matrices into nested lists.
PEAK = frozenset({
    "operators.assemble_continuous",
    "operators.save_operator",
    "operators.load_operator",
    "identify.run_recovery",
})

BOOKKEEPING = "trace.bookkeeping"
MIB = 1024.0 * 1024.0


def _pairs(args, kwargs, result):
    return {"geometry.pairs": result.size}


def _edges(args, kwargs, result):
    n = result.mask.shape[0]
    return {"identify.edges": int(result.mask.sum()),
            "identify.offdiag": n * (n - 1)}


def _tensors(args, kwargs, result):
    dist = args[0] if args else kwargs["dist"]
    return {"identify.tensors": result.indices.size,
            "identify.nodes": dist.shape[0]}


def _draws(args, kwargs, result):
    return {"rng.uniforms.draws": result.size}


def _file_bytes(name, pos, key):
    def count(args, kwargs, result):
        path = args[pos] if len(args) > pos else kwargs[key]
        return {name: os.path.getsize(path)}
    return count


# Counters computed from a call's arguments and result, after its span ends.
COUNTERS = {
    "geometry.torus_sq_geodesic": _pairs,
    "geometry.sphere_sq_geodesic": _pairs,
    "geometry.ambient_sq_dist": _pairs,
    "identify.extract_weighted_kernel": _edges,
    "identify.metric_field_from_distance": _tensors,
    "rng.uniforms": _draws,
    "operators.save_operator": _file_bytes("operators.save_operator.bytes", 1, "path"),
    "operators.load_operator": _file_bytes("operators.load_operator.bytes", 0, "path"),
    "operators.save_matrix": _file_bytes("operators.save_matrix.bytes", 1, "path"),
}


class Tracer:
    """In-memory span recorder for one batch in one process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, cmd, peak)
        self.counters: dict[str, float] = {}
        self.installed: set[str] = set()
        self.command = -1
        self._stack: list[int] = []

    def _span(self, name, start, end, peak=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((len(self.spans), parent, name, start, end,
                           self.command, peak))

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        track = name in PEAK
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = False
            if track and not tracemalloc.is_tracing():
                b0 = clock()
                tracemalloc.start()
                started = True
                tracer._span(BOOKKEEPING, b0, clock())
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; parents precede children
            tracer._stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                parent = tracer._stack[-1] if tracer._stack else -1
                peak = None
                if started:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.spans[sid] = (sid, parent, name, t0, t1, tracer.command, peak)
                if started:
                    tracer._span(BOOKKEEPING, t1, clock())
            if count is not None:
                b0 = clock()
                for key, value in count(args, kwargs, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
                tracer._span(BOOKKEEPING, b0, clock())
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of MODULES wherever laplab binds them."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = __import__(f"{package.__name__}.{short}",
                                            fromlist=["_"])
            except ImportError:
                continue
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                self.installed.add(f"{short}.{attr}")
        everywhere = [package] + [
            m for name, m in vars(package).items()
            if inspect.ismodule(m) and m.__name__.startswith(package.__name__)
        ] + list(modules.values())
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                name = f"{short}.{meth}"
                setattr(cls, meth, self.wrap(name, fn))
                self.installed.add(name)


def summarize(spans) -> dict:
    """Per-name busy, self and call totals, plus the largest recorded peak.

    busy counts a span only when no enclosing span has the same name, so a
    function that re-enters itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, name, t0, t1, cmd, peak in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    table: dict[str, dict] = {}
    for sid, parent, name, t0, t1, cmd, peak in spans:
        row = table.setdefault(name, {"busy_s": 0.0, "self_s": 0.0,
                                      "calls": 0, "peak_mib": 0.0})
        dur = t1 - t0
        row["calls"] += 1
        row["self_s"] += dur - child_time.get(sid, 0.0)
        up = parent
        while up >= 0 and by_id[up][2] != name:
            up = by_id[up][1]
        if up < 0:
            row["busy_s"] += dur
        if peak is not None:
            row["peak_mib"] = max(row["peak_mib"], peak / MIB)
    return table


def _q(name, quantity):
    return lambda table, counters: table.get(name, {}).get(quantity, 0.0)


def _c(key):
    return lambda table, counters: counters.get(key, 0)


def _ratio(num, den):
    def read(table, counters):
        d = counters.get(den, 0)
        return counters.get(num, 0) / d if d else 0.0
    return read


_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count", "peak_mib": "MiB"}

# metric name -> (unit, function it needs, reader of (table, counters)).
PER_LAYER = {
    f"{func}.{q}": (_UNITS[q], func, _q(func, q))
    for func, quantities in (
        ("geometry.torus_sq_geodesic", ("busy_s",)),
        ("geometry.sphere_sq_geodesic", ("busy_s",)),
        ("geometry.ambient_sq_dist", ("busy_s",)),
        ("operators.assemble_continuous", ("busy_s", "self_s", "peak_mib")),
        ("operators.save_operator", ("busy_s",)),
        ("operators.load_operator", ("busy_s",)),
        ("operators.save_matrix", ("busy_s",)),
        ("operators.evaluate_discrete", ("self_s", "calls")),
        ("operators.continuous_value", ("busy_s",)),
        ("identify.run_recovery", ("busy_s", "peak_mib")),
        ("identify.extract_weighted_kernel", ("busy_s",)),
        ("identify.recover_mass", ("busy_s",)),
        ("identify.recover_kernel_distance", ("busy_s",)),
        ("identify.metric_field_from_distance", ("busy_s",)),
        ("identify.recover_density", ("busy_s",)),
        ("identify.report_payload", ("busy_s",)),
        ("rng.uniforms", ("busy_s",)),
        ("discretization.sample_points", ("self_s",)),
        ("verify.convergence_study", ("busy_s", "self_s")),
        ("cli.main", ("self_s", "calls")),
    )
    for q in quantities
}
PER_LAYER.update({
    "geometry.pairs": ("count", None, _c("geometry.pairs")),
    "operators.save_operator.bytes": ("bytes", "operators.save_operator",
                                      _c("operators.save_operator.bytes")),
    "operators.load_operator.bytes": ("bytes", "operators.load_operator",
                                      _c("operators.load_operator.bytes")),
    "operators.save_matrix.bytes": ("bytes", "operators.save_matrix",
                                    _c("operators.save_matrix.bytes")),
    "rng.uniforms.draws": ("count", "rng.uniforms", _c("rng.uniforms.draws")),
    "identify.edge_density": ("ratio", "identify.extract_weighted_kernel",
                              _ratio("identify.edges", "identify.offdiag")),
    "identify.tensor_coverage": ("ratio", "identify.metric_field_from_distance",
                                 _ratio("identify.tensors", "identify.nodes")),
})


def layer_metrics(spans, counters, installed) -> dict:
    """Values of PER_LAYER; names whose function is not installed are absent."""
    table = summarize(spans)
    out = {}
    for name, (unit, func, read) in PER_LAYER.items():
        if func is not None and func not in installed:
            continue
        out[name] = {"value": float(read(table, counters)), "unit": unit}
    return out
