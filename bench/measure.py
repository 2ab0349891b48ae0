"""Run one workload for a time budget and turn its passes into metrics.

Untraced run (trace=False): a warm-up pass, then untraced passes until the
budget is spent, with a batch of repeated set-ups (the offline stage) after
every path, so set-up and online work are sampled under the same host
conditions; reports END_TO_END.
Traced run (trace=True): the same, with every untraced pass followed by a
traced one; reports PER_LAYER from the traced passes, including the
tracing overhead against the untraced passes of the same run, and writes
the spans of the first traced pass.

Every timing is the median over the passes (or set-up batches) of the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from tracing import (
    CALLBACKS,
    NullTracer,
    Tracer,
    instrumented,
    layer_totals,
    traced_model,
    write_spans,
)
from workloads import run_pass, setup, checks

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "filter_knots_per_s": "knots/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pde.assemble_s": "s",
    "pde.propagate_s": "s",
    "pde.propagate_calls": "count",
    "pde.cn_substeps": "count",
    "pde.krylov_iterations": "count",
    "pde.generator_nnz": "count",
    "pde.cn_bytes_computed": "B",
    "pde.exp_update_s": "s",
    "pde.max_clamped_frac": "fraction",
    "filtering.run_filter_s": "s",
    "filtering.self_s": "s",
    "filtering.knots": "count",
    "sde.simulate_s": "s",
    "sde.euler_steps": "count",
    "models.callback_s": "s",
    "models.callback_calls": "count",
    "models.callback_points": "count",
    "baselines.kalman_s": "s",
    "baselines.pf_s": "s",
    "baselines.pf_particle_steps": "count",
    "baselines.pf_resamples": "count",
    "baselines.pf_min_ess_frac": "fraction",
    "bench.trace_overhead": "fraction",
    "bench.spans": "count",
}

WARMUP_KNOTS = 20
# Set-ups are timed in batches of at least SETUP_BATCH_SECONDS each, so a
# sub-millisecond set-up (241 nodes) is timed over about a hundred
# repetitions per batch.
SETUP_BATCH_SECONDS = 0.05


def environment() -> dict:
    """Machine and library facts that the figures depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _cn_bytes(plan, substeps: int) -> int:
    """Computed bytes of the explicit-side CSR matvec of `substeps` CN stages.

    Per stage: values and column indices (12 nnz), row pointers (4 (N+1)),
    reading x and writing A x (16 N).  The implicit solve is not included.
    """
    mat = plan.generator.matrix
    n = mat.shape[0]
    return substeps * (12 * mat.nnz + 4 * (n + 1) + 16 * n)


def _layer_metrics(plan, res, tracer) -> dict:
    tot = layer_totals(tracer.spans)
    busy, calls, self_s, counts = tot["busy"], tot["calls"], tot["self"], tracer.counts
    cb = [f"models.{c}" for c in CALLBACKS]
    has_pf = counts.get("baselines.pf_particle_steps", 0) > 0
    return {
        "pde.propagate_s": busy.get("pde.propagate", 0.0),
        "pde.propagate_calls": calls.get("pde.propagate", 0),
        "pde.cn_substeps": counts.get("pde.cn_substeps", 0),
        "pde.krylov_iterations": counts.get("pde.krylov_iterations", 0),
        "pde.generator_nnz": plan.generator.matrix.nnz,
        "pde.cn_bytes_computed": _cn_bytes(plan, counts.get("pde.cn_substeps", 0)),
        "pde.exp_update_s": busy.get("pde.exp_update", 0.0),
        "pde.max_clamped_frac": res.max_clamped_frac,
        "filtering.run_filter_s": busy.get("filtering.run_filter", 0.0),
        "filtering.self_s": self_s.get("filtering.run_filter", 0.0),
        "filtering.knots": counts.get("filtering.knots", 0),
        "sde.simulate_s": busy.get("sde.simulate", 0.0),
        "sde.euler_steps": counts.get("sde.euler_steps", 0),
        "models.callback_s": sum(busy.get(c, 0.0) for c in cb),
        "models.callback_calls": sum(calls.get(c, 0) for c in cb),
        "models.callback_points": counts.get("models.callback_points", 0),
        "baselines.kalman_s": busy.get("baselines.kalman_filter", 0.0),
        "baselines.pf_s": busy.get("baselines.bootstrap_pf", 0.0),
        "baselines.pf_particle_steps": counts.get("baselines.pf_particle_steps", 0),
        "baselines.pf_resamples": res.pf_resamples,
        "baselines.pf_min_ess_frac": res.pf_min_ess_frac if has_pf else 0.0,
        "bench.spans": len(tracer.spans),
    }


def run(w, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """Measure workload `w`; returns the result object plus printable detail."""
    null = NullTracer()
    warm = dataclasses.replace(w, knots=min(w.knots, WARMUP_KNOTS), paths=1)
    run_pass(warm, setup(warm, null), seed, null)

    t0 = time.perf_counter()
    plan = setup(w, null)
    per_batch = max(1, math.ceil(SETUP_BATCH_SECONDS / (time.perf_counter() - t0)))
    setup_s, assemble_s = [], []

    def setup_batch():
        tracer = Tracer() if trace else null
        t0 = time.perf_counter()
        for _ in range(per_batch):
            setup(w, tracer)
        setup_s.append((time.perf_counter() - t0) / per_batch)
        if trace:
            busy = layer_totals(tracer.spans)["busy"]
            assemble_s.append(busy["pde.assemble_generator"] / per_batch)

    plain, traced, first_spans = [], [], None
    start = time.perf_counter()
    while True:
        plain.append(run_pass(w, plan, seed, null, between=setup_batch))
        if trace:
            tracer = Tracer()
            with instrumented(tracer):
                res = run_pass(w, plan, seed, tracer, model=traced_model(tracer, plan.model))
            traced.append((res, _layer_metrics(plan, res, tracer)))
            if first_spans is None:
                first_spans = tracer.spans
        elapsed = time.perf_counter() - start
        # The pass count is the budget over the pass time, rounded: one more
        # pass runs if it would end within half a pass of the budget.
        if elapsed + 0.5 * elapsed / len(plain) > seconds:
            break

    passes = plain + [res for res, _ in traced]
    all_checks = [checks(w, p) for p in passes]
    passed = [all(ok for _, _, _, ok, _ in chk) for chk in all_checks]
    correct = all(passed)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    run_plain = statistics.median([p.run_s for p in plain])
    if trace:
        # median_low keeps counts integral: they repeat exactly across passes.
        metrics = {
            name: statistics.median_low([m[name] for _, m in traced])
            for name in PER_LAYER
            if name not in ("pde.assemble_s", "bench.trace_overhead")
        }
        metrics["pde.assemble_s"] = statistics.median(assemble_s)
        traced_run_s = statistics.median([res.run_s for res, _ in traced])
        metrics["bench.trace_overhead"] = traced_run_s / run_plain - 1
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": run_plain,
            "filter_knots_per_s": statistics.median(
                [p.filter_knots / p.filter_s for p in plain if p.filter_s > 0] or [0.0]
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    env = environment()
    if trace and spans_path is not None:
        write_spans(spans_path, {"workload": w.name, "seed": seed, "environment": env}, first_spans)

    return {
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
        "environment": env,
        "checks": all_checks[passed.index(False) if not correct else 0],
        "passes": len(plain),
        "traced_passes": len(traced),
        "setups": len(setup_s) * per_batch,
        "oracle_s": statistics.median([p.oracle_s for p in plain]),
        "pass_run_s": [p.run_s for p in plain],
        "setup_batch_s": setup_s,
        "run_s_untraced": run_plain,
    }


def report(w, seed: int, out: dict, spans_path=None) -> list:
    """Printable lines of a run; the last one is the result object as JSON."""
    traced = out["traced_passes"] > 0
    lines = [
        f"environment {json.dumps(out['environment'])}",
        f"workload {w.name} seed {seed}: {out['passes']} untraced and {out['traced_passes']} "
        f"traced passes of {w.paths} path(s), {out['setups']} set-ups",
    ]
    for name, m in out["result"]["metrics"].items():
        lines.append(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    if traced:
        lines.append(f"  {'untraced run_s':30s} {out['run_s_untraced']:.6g} s")
        if spans_path is not None:
            lines.append(f"  spans written to {spans_path}")
    lines.append(f"  {'oracle_s':30s} {out['oracle_s']:.6g} s (median over untraced passes)")
    for name, values in (("pass run_s", out["pass_run_s"]), ("set-up batch", out["setup_batch_s"])):
        lines.append(f"  {name + ' range':30s} {min(values):.6g} .. {max(values):.6g} s")
    for name, value, unit, ok, rule in out["checks"]:
        lines.append(f"  check {name:24s} {value:.6g} {unit} ({rule}): {'ok' if ok else 'FAILED'}")
    lines.append(json.dumps(out["result"]))
    return lines
