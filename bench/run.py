"""yyfilter benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload linear1d_paths --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Lines before the last describe the
run for a reader (environment, every metric with its unit, each output
check); the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and the
spans of one traced pass are written under .bench_out/.

Exit status: 0 after a measured run (even when a check fails, which sets
`correct` to false), 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed so that every commit is measured with the same BLAS threading; the
# variables must be set before numpy loads its BLAS.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "yyfilter" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'yyfilter'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    spans_path = ROOT / ".bench_out" / f"spans-{w.name}-seed{args.seed}.json"
    out = measure.run(w, args.seed, args.seconds, bool(args.trace), spans_path)

    for line in measure.report(w, args.seed, out, spans_path.relative_to(ROOT)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
