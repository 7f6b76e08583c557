#!/usr/bin/env python3
"""Sweep the metric stencil over grid resolutions and print its error decay.

The stencil runs on closed-form great-circle distances of the unit sphere,
evaluated at the u = pi/4 row where the truncation term is visible.  On
constant-metric tori the same stencil is exact; the sweep prints both so a
regression in either regime is obvious at a glance.

Usage: python3 scripts/stencil_order_sweep.py [--grids 16,32,64,128]
"""

import argparse
import sys

import numpy as np

from laplab.discretization import build_grid
from laplab.geometry import TorusMetric, sq_dist
from laplab.identify import metric_field_from_distance
from laplab.verify import stencil_order_study


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="16,32,64")
    args = ap.parse_args()
    grids = tuple(int(s) for s in args.grids.split(",") if s)

    h_values, errors, slope = stencil_order_study(grid_sizes=grids)
    print("sphere, closed-form distances, node at u = pi/4:")
    print(f"{'h':>12} {'max error':>14} {'ratio':>8}")
    for i, (h, e) in enumerate(zip(h_values, errors)):
        ratio = errors[i - 1] / e if i else float("nan")
        print(f"{h:12.6f} {e:14.6e} {ratio:8.2f}")
    print(f"log-log slope: {slope:.3f} (second order is 2)")

    print("\nconstant-metric tori (stencil exact):")
    for metric, name in (
        (TorusMetric.flat(), "flat"),
        (TorusMetric.anisotropic(2.0), "diag(4, 1/4)"),
    ):
        rule = build_grid(metric, 16)
        dist = np.sqrt(sq_dist(metric, rule.nodes, rule.nodes))
        g = metric_field_from_distance(dist, rule).tensor_at(0)
        err = float(np.max(np.abs(g - metric.matrix())))
        print(f"  {name:>14}: max error {err:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
