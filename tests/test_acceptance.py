"""Acceptance gate: eight criteria, one summary line each.

Each test measures its quantities, registers a PASS/FAIL line for the
terminal summary, then asserts the stated tolerances and runtime caps.
The lines are printed after the run by a hook in conftest.py, so the
verdict of every criterion is visible even in quiet pytest output.
"""

import time

import numpy as np

from laplab.discretization import (
    CosineBump,
    UniformDensity,
    build_grid,
    density_values,
)
from laplab.geometry import (
    CliffordTorus,
    SphereMetric,
    TorusMetric,
    UnitSphere,
    sq_dist,
)
from laplab.identify import metric_field_from_distance, run_recovery
from laplab.operators import assemble_continuous
from laplab.verify import ScenarioConfig, run_scenario, stencil_order_study

from conftest import acceptance_lines


def _report(num: int, ok: bool, detail: str) -> None:
    acceptance_lines.append(
        f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    )


def test_criterion_1_constant_annihilation():
    start = time.perf_counter()
    worst = 0.0
    pairs = (
        (TorusMetric.flat(), CliffordTorus()),
        (TorusMetric.anisotropic(2.0), CliffordTorus()),
        (SphereMetric(1.0), UnitSphere()),
    )
    for metric, emb in pairs:
        for n in (16, 32):
            rule = build_grid(metric, n)
            for p in (UniformDensity(), CosineBump(0.5, "u")):
                for space in (metric, emb):
                    op = assemble_continuous(space, p, rule, 0.5)
                    resid = float(np.max(np.abs(op.entries @ np.ones(op.n))))
                    worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"max |L 1| = {worst:.2e} over 24 operators, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_extrinsic_equality_counterexample():
    start = time.perf_counter()
    r = run_scenario(ScenarioConfig(scenario="S3", grid=32, bandwidth=0.5))
    elapsed = time.perf_counter() - start
    ext = r.discrepancies["extrinsic_distance"]
    intr = r.discrepancies["intrinsic_distance"]
    ok = ext <= 1e-14 and intr > 1e-3 and elapsed < 5.0
    _report(2, ok, f"extrinsic gap {ext:.2e}, intrinsic gap {intr:.2e}, {elapsed:.1f}s")
    assert ext <= 1e-14
    assert intr > 1e-3
    assert elapsed < 5.0


def test_criterion_3_measure_identifiability():
    start = time.perf_counter()
    r = run_scenario(ScenarioConfig(scenario="S4", grid=32, bandwidth=0.5))
    elapsed = time.perf_counter() - start
    ext = r.discrepancies["extrinsic_distance"]
    mass = r.discrepancies["mass_max_diff"]
    ok = ext <= 1e-12 and mass <= 1e-8 and elapsed < 5.0
    _report(3, ok, f"operator gap {ext:.2e}, mass gap {mass:.2e}, {elapsed:.1f}s")
    assert ext <= 1e-12
    assert mass <= 1e-8
    assert elapsed < 5.0


def test_criterion_4_joint_round_trip():
    start = time.perf_counter()
    r32 = run_scenario(ScenarioConfig(scenario="S2", grid=32, bandwidth=0.5))
    elapsed32 = time.perf_counter() - start
    m32 = r32.discrepancies["metric_max_error"]
    d32 = r32.discrepancies["density_max_rel_error"]

    r64 = run_scenario(ScenarioConfig(scenario="S2", grid=64, bandwidth=0.5))
    m64 = r64.discrepancies["metric_max_error"]
    d64 = r64.discrepancies["density_max_rel_error"]

    # the same round trip on the unit sphere, where the metric varies and the
    # stencil's O(h^2) truncation error is what recovery converges at
    sphere = SphereMetric(1.0)
    sphere_errors = []
    for n in (32, 64):
        rule = build_grid(sphere, n)
        p = CosineBump(0.5, "u")
        report = run_recovery(assemble_continuous(sphere, p, rule, 0.5))
        idx = report.metric_field.indices
        g_true = np.zeros((idx.size, 2, 2))
        g_true[:, 0, 0] = 1.0
        g_true[:, 1, 1] = np.sin(rule.nodes[idx, 0]) ** 2
        p_true = density_values(p, rule)[idx]
        sphere_errors.append((
            float(np.max(np.abs(report.metric_field.tensors - g_true))),
            float(np.max(np.abs(report.density - p_true) / p_true)),
        ))
    (sm32, sd32), (sm64, sd64) = sphere_errors

    within = m32 <= 1e-3 and d32 <= 1e-3
    # the torus metric is constant, so the closed-form operator is inverted
    # to rounding; the residual is a round-off floor that the 1/h^2 stencil
    # division raises under refinement, so it is bounded, not asked to halve
    at_floor = max(m32, d32, m64, d64) <= 1e-12
    halved = sm64 <= sm32 / 2 and sd64 <= sd32 / 2
    ok = within and at_floor and halved and elapsed32 < 60.0
    _report(
        4,
        ok,
        f"torus metric {m32:.2e}, {m64:.2e}, density {d32:.2e}, {d64:.2e}; "
        f"sphere metric {sm32:.2e}->{sm64:.2e} (x{sm32 / sm64:.1f}), "
        f"density {sd32:.2e}->{sd64:.2e} (x{sd32 / sd64:.1f}), "
        f"{elapsed32:.1f}s at grid 32",
    )
    assert within
    assert elapsed32 < 60.0
    assert at_floor, (
        f"torus round trip above the rounding floor: metric {m32:.3e}, {m64:.3e}, "
        f"density {d32:.3e}, {d64:.3e}"
    )
    assert halved, (
        f"sphere errors did not halve at grid 64: metric {sm32:.3e} -> {sm64:.3e}, "
        f"density {sd32:.3e} -> {sd64:.3e}"
    )


def test_criterion_5_induced_metric_recovery():
    start = time.perf_counter()
    r = run_scenario(ScenarioConfig(scenario="S6", grid=32, bandwidth=0.5))
    elapsed = time.perf_counter() - start
    cl = r.discrepancies["clifford_metric_max_error"]
    do = r.discrepancies["donut_tube_max_error"]
    sp = r.discrepancies["sphere_equator_max_error"]
    ok = cl <= 1e-3 and do <= 1e-2 and sp <= 5e-3 and elapsed < 60.0
    _report(
        5, ok,
        f"clifford {cl:.2e}, donut {do:.2e}, sphere {sp:.2e}, {elapsed:.1f}s",
    )
    assert cl <= 1e-3
    assert do <= 1e-2
    assert sp <= 5e-3
    assert elapsed < 60.0


def test_criterion_6_stencil_order():
    start = time.perf_counter()
    _, errors, slope = stencil_order_study(grid_sizes=(16, 32, 64))

    worst_exact = 0.0
    for metric in (TorusMetric.flat(), TorusMetric.anisotropic(2.0)):
        rule = build_grid(metric, 16)
        dist = np.sqrt(sq_dist(metric, rule.nodes, rule.nodes))
        fld = metric_field_from_distance(dist, rule)
        g = fld.tensor_at(3 * 16 + 7)
        worst_exact = max(worst_exact, float(np.max(np.abs(g - metric.matrix()))))
    elapsed = time.perf_counter() - start
    ok = abs(slope - 2.0) <= 0.2 and worst_exact <= 1e-10 and elapsed < 5.0
    _report(
        6, ok,
        f"slope {slope:.3f}, constant-metric error {worst_exact:.2e}, {elapsed:.1f}s",
    )
    assert abs(slope - 2.0) <= 0.2
    assert worst_exact <= 1e-10
    assert elapsed < 5.0


def test_criterion_7_monte_carlo_rate():
    start = time.perf_counter()
    r = run_scenario(ScenarioConfig(scenario="S5"))
    elapsed = time.perf_counter() - start
    slope = r.discrepancies["slope"]
    ok = -0.65 <= slope <= -0.35 and elapsed < 120.0
    _report(7, ok, f"slope {slope:.3f} over 20 seeds x 4 sizes, {elapsed:.1f}s")
    assert -0.65 <= slope <= -0.35
    assert elapsed < 120.0


def test_criterion_8_byte_identical_reports(tmp_path):
    pairs = []
    for sid in ("S2", "S5"):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sid}_{tag}"
            run_scenario(ScenarioConfig(scenario=sid, grid=16, seed=1234, out_dir=str(out)))
            paths.append((out / f"{sid}.json").read_bytes())
        pairs.append((sid, paths[0] == paths[1]))
    ok = all(same for _, same in pairs)
    detail = ", ".join(f"{sid} {'identical' if same else 'DIFFERS'}" for sid, same in pairs)
    _report(8, ok, detail)
    assert ok
