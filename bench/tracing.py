"""In-memory spans recorded from the benchmark's own files.

A span is (id, name, start_ns, end_ns, parent_id, path_id).  The benchmark
opens spans around its calls to the package's public functions; for a
traced pass it also wraps `propagate` / `exp_update` as the filtering module
looks them up, `bicgstab` as the pde module looks it up, and the model's
drift / diffusion / observation callbacks.  Nothing inside the package is
edited: the wrappers are installed by attribute assignment and removed
when the pass ends.

Layer metrics are computed from one pass's spans by `layer_totals`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager, nullcontext

import yyfilter.filtering
import yyfilter.pde

CALLBACKS = ("drift", "diffusion", "observation")


class Tracer:
    """Collects spans of one pass; `path` tags every span opened inside it."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [-1]
        self._path = -1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def path(self, path_id: int):
        outer, self._path = self._path, path_id
        try:
            yield
        finally:
            self._path = outer

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._path)


class NullTracer:
    """Stand-in for untraced passes: every hook is a no-op."""

    def count(self, name: str, n: int = 1) -> None:
        pass

    def path(self, path_id: int):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()


def _wrap(tracer: Tracer, name: str, fn, on_call=None):
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def traced_model(tracer: Tracer, model):
    """The model with its coefficient callbacks wrapped in spans."""

    def points(args, kwargs):
        tracer.count("models.callback_points", len(args[0]))

    return dataclasses.replace(
        model,
        **{cb: _wrap(tracer, f"models.{cb}", getattr(model, cb), points) for cb in CALLBACKS},
    )


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the pde primitives the online loop calls, for the span of a pass."""

    def substeps(args, kwargs):
        n = kwargs["substeps"] if "substeps" in kwargs else (args[3] if len(args) > 3 else 1)
        tracer.count("pde.cn_substeps", n)

    def krylov(args, kwargs):
        # scipy calls back once per completed iteration; a solve that ends at
        # the half step of its last iteration does not count that one.
        kwargs["callback"] = lambda xk: tracer.count("pde.krylov_iterations")

    patches = [
        (yyfilter.filtering, "propagate", "pde.propagate", substeps),
        (yyfilter.filtering, "exp_update", "pde.exp_update", None),
        (yyfilter.pde, "bicgstab", "pde.krylov_solve", krylov),
    ]
    saved = []
    try:
        # getattr raises if a wrapped function has moved: a layer that is not
        # measured must fail the run, not read as 0.
        for module, attr, name, hook in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_totals(spans) -> dict:
    """Per-name busy seconds, call counts, and self seconds of each span name.

    Self time is a span's duration minus the durations of its direct
    children (children of one span never overlap: the pass is sequential).
    """
    busy, calls, child = {}, {}, {}
    for sid, name, start, end, parent, _ in spans:
        dur = (end - start) * 1e-9
        busy[name] = busy.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + dur
    self_s = {}
    for sid, name, start, end, parent, _ in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start) * 1e-9 - child.get(sid, 0.0)
    return {"busy": busy, "calls": calls, "self": self_s}


def write_spans(path, header: dict, spans) -> None:
    """Write spans as JSON, times in ns relative to the first span's start."""
    t0 = min((s[2] for s in spans), default=0)
    rows = [[sid, name, s - t0, e - t0, parent, pid] for sid, name, s, e, parent, pid in spans]
    doc = dict(header, fields=["id", "name", "start_ns", "end_ns", "parent", "path"], spans=rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
