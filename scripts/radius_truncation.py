#!/usr/bin/env python3
"""Sweep the truncation radius at fixed spacing: estimate drift against
the largest domain plus tail-mass decay."""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from yyfilter import TimeSchedule, builtin_model, coordinate, radius_sweep
from yyfilter.cli import error_boundary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", default="3,4.5,6")
    ap.add_argument("--dx", type=float, default=0.05)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--out", default="out/radius.csv")
    args = ap.parse_args()

    model = builtin_model("linear1d")
    schedule = TimeSchedule(1.0, args.steps)
    radii = [float(s) for s in args.radii.split(",")]
    res = radius_sweep(
        model, schedule, radii, dx=args.dx, seeds=list(range(args.seeds)),
        phi=coordinate(0),
    )
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(res.to_csv())
    print(json.dumps({
        "radii": list(map(float, res.values)),
        "mean_err": list(map(float, res.mean_err)),
        "tail_mass": list(map(float, res.extras["tail_mass"])),
    }))
    print(f"-> {target}")


if __name__ == "__main__":
    sys.exit(error_boundary(main))
