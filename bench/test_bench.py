"""Smoke test of the benchmark: every workload at a tiny size.

    python -m pytest bench -q

Checks that each run prints every end-to-end (untraced) or per-layer
(traced) metric with its unit, that the output checks run and pass, and
that the traced run writes its spans.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNIT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-")


def tiny(w):
    return dataclasses.replace(
        w,
        points=min(w.points, 21 if w.dim < 3 else 15),
        knots=5,
        paths=min(w.paths, 2),
        particles=min(w.particles, 500),
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_prints_every_metric(name, trace, tmp_path):
    w = tiny(WORKLOADS[name])
    spans = tmp_path / "spans.json"
    out = measure.run(w, seed=0, seconds=0.01, trace=trace, spans_path=spans)
    lines = measure.report(w, 0, out, spans)

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= w.paths
    expected = measure.PER_LAYER if trace else measure.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, unit in expected.items():
        m = result["metrics"][metric]
        assert m["unit"] == unit and set(unit) <= UNIT_CHARS
        assert isinstance(m["value"], (int, float))
        assert any(ln.split()[:1] == [metric] and ln.split()[-1] == unit for ln in lines)

    check_names = {c[0] for c in out["checks"]}
    assert {"fail_frac", "finite"} <= check_names
    assert ("pf_within_3se" if w.particles else "kalman_gap") in check_names
    assert all(ok for *_, ok, _ in out["checks"])
    assert spans.exists() == trace
    if trace:
        doc = json.loads(spans.read_text())
        assert doc["fields"] == ["id", "name", "start_ns", "end_ns", "parent", "path"]
        names = {s[1] for s in doc["spans"]}
        assert {"sde.simulate", "filtering.run_filter", "pde.propagate"} <= names
        assert {"pde.exp_update", "models.observation"} <= names


def test_failed_path_is_counted_and_run_goes_on(monkeypatch):
    import workloads

    real = workloads.run_filter
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise workloads.MassCollapseError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "run_filter", flaky)
    w = tiny(WORKLOADS["linear1d_paths"])
    out = measure.run(w, seed=0, seconds=0.01, trace=False)
    assert out["result"]["failed"] == out["result"]["attempted"] // 2 > 0
    assert dict((c[0], c[1]) for c in out["checks"])["fail_frac"] == 0.5


def test_failed_check_is_reported():
    w = dataclasses.replace(tiny(WORKLOADS["linear1d_paths"]), gap_tolerance=0.0)
    out = measure.run(w, seed=0, seconds=0.01, trace=False)
    assert not out["result"]["correct"]
    assert any(ln.endswith("FAILED") for ln in measure.report(w, 0, out))


def test_benchmark_json_matches_code():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == measure.PER_LAYER


def test_tracing_fails_when_a_wrapped_function_is_missing(monkeypatch):
    import yyfilter.filtering
    from tracing import Tracer, instrumented

    monkeypatch.delattr(yyfilter.filtering, "exp_update")
    with pytest.raises(AttributeError):
        with instrumented(Tracer()):
            pass
