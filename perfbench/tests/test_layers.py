import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from layers import Span, Tracer, install, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover 1..6
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 7.0, 8.0, 0),  # a second call of a adds to a's self time
        Span("late", 9.5, 11.0, 0),  # only 9.5..10 lies inside root
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 10.0 - 5.0 - 1.0 - 0.5, "a": 2.0 + 1.0, "b": 3.0, "leaf": 1.0, "late": 1.5})


def test_tracer_nests_spans_and_closes_them_on_error():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    def outer():
        with pytest.raises(RuntimeError):
            tracer.run("inner", boom)
        return 3

    assert tracer.run("outer", outer) == 3
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


def test_a_missing_layer_function_gives_an_absent_metric(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.present = lambda xs: list(xs)
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    table = (
        ("fake_layer", "present", "fake.present", {"fake.rows": lambda args, out: len(out)}),
        ("fake_layer", "missing", "fake.missing", {"fake.missing_rows": lambda args, out: 1}),
        ("fake_layer_gone", "present", "fake.gone", {}),
    )
    tracer = Tracer()
    installed, restore = install(tracer, table)
    try:
        mod.present([1, 2, 3])
    finally:
        restore()
    metrics = layer_metrics(tracer, installed, {})
    assert metrics["fake.rows"] == 3 and metrics["fake.present_s"] >= 0.0
    assert "fake.missing_s" not in metrics and "fake.missing_rows" not in metrics
    assert "fake.gone_s" not in metrics
    assert not hasattr(mod, "missing")
    assert mod.present.__name__ == "<lambda>"  # restored, not the wrapper


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == list(layers.PER_LAYER_METRICS)
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
