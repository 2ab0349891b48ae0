#!/usr/bin/env python3
"""Compare the grid filter against the exact Kalman recursion on the
linear benchmark, over many observation paths.

Writes one CSV row per seed with the knot-averaged absolute mean gap.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from yyfilter import (
    TimeSchedule,
    build_grid,
    builtin_model,
    coordinate,
    kalman_filter,
    run_filter,
    simulate,
)
from yyfilter.cli import error_boundary
from yyfilter.tables import csv_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--terminal", type=float, default=1.0)
    ap.add_argument("--radius", type=float, default=6.0)
    ap.add_argument("--points", type=int, default=241)
    ap.add_argument("--substeps", type=int, default=4)
    ap.add_argument("--out", default="out/kalman_agreement.csv")
    args = ap.parse_args()

    model = builtin_model("linear1d")
    grid = build_grid(1, args.radius, args.points)
    schedule = TimeSchedule(args.terminal, args.steps)
    phi = [coordinate(0)]

    started = time.time()
    seeds = range(args.seeds)
    obs = [ys for _, ys in simulate(model, schedule, substeps=args.substeps, seed=seeds)]
    outs = run_filter(model, grid, schedule, obs, phi, substeps=args.substeps)
    gaps = [
        float(np.mean(np.abs(out.estimates[1:, 0] - kal.means[1:, 0])))
        for out, kal in zip(outs, kalman_filter(model, schedule, obs))
    ]
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(csv_table(["seed", "mean_abs_gap"], [[str(s) for s in seeds], gaps]))
    print(f"mean over {args.seeds} seeds: {np.mean(gaps):.3e} "
          f"({time.time() - started:.1f}s) -> {target}")


if __name__ == "__main__":
    sys.exit(error_boundary(main))
