#!/usr/bin/env python3
"""Sweep the time step on the linear benchmark and fit the error decay
rate against a near-exact Kalman oracle."""

import argparse
import sys
from pathlib import Path

from yyfilter import build_grid, builtin_model, convergence_sweep, coordinate
from yyfilter.cli import error_boundary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", default="0.02,0.01,0.005,0.0025")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--terminal", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=241)
    ap.add_argument("--out", default="out/convergence.csv")
    args = ap.parse_args()

    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, args.points)
    deltas = [float(s) for s in args.deltas.split(",")]
    res = convergence_sweep(
        model, grid, args.terminal, deltas, list(range(args.seeds)),
        oracle="kalman", phi=coordinate(0),
    )
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(res.to_csv())
    print(res.summary_json())
    print(f"-> {target}")


if __name__ == "__main__":
    sys.exit(error_boundary(main))
