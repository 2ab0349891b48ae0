#!/usr/bin/env python3
"""Cross-validate the grid filter against a large bootstrap particle
filter on the nonlinear benchmarks."""

import argparse
import sys
from pathlib import Path

import numpy as np

from yyfilter import (
    TimeSchedule,
    bootstrap_pf,
    build_grid,
    builtin_model,
    coordinate,
    run_filter,
    simulate,
)
from yyfilter.cli import error_boundary
from yyfilter.tables import csv_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="benes", choices=["benes", "cubic_sensor"])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--particles", type=int, default=100_000)
    ap.add_argument("--substeps", type=int, default=None,
                    help="Crank-Nicolson substeps (default 4; 8 for cubic_sensor)")
    ap.add_argument("--out", default="out/crossval.csv")
    args = ap.parse_args()

    substeps = args.substeps or (8 if args.model == "cubic_sensor" else 4)
    model = builtin_model(args.model)
    grid = build_grid(1, 6.0, 241)
    schedule = TimeSchedule(1.0, args.steps)
    phi = [coordinate(0)]

    seeds = range(args.seeds)
    obs_all = [ys for _, ys in simulate(model, schedule, substeps=4, seed=seeds)]
    outs = run_filter(model, grid, schedule, obs_all, phi, substeps=substeps)
    gaps, fracs = [], []
    for seed, obs, out in zip(seeds, obs_all, outs):
        pf = bootstrap_pf(model, schedule, obs, phi, args.particles, seed=seed + 1000)
        diff = np.abs(out.estimates[1:, 0] - pf.estimates[1:, 0])
        frac = float(np.mean(diff <= 3 * np.maximum(pf.stderr[1:, 0], 1e-12)))
        gaps.append(diff.mean())
        fracs.append(frac)
        print(f"seed {seed}: mean gap {diff.mean():.2e}, within 3se at {frac:.1%} of knots")
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(csv_table(["seed", "mean_abs_gap", "frac_within_3se"],
                                [[str(s) for s in seeds], gaps, fracs]))
    print(f"-> {target}")


if __name__ == "__main__":
    sys.exit(error_boundary(main))
