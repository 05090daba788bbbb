"""Spans around timetrail's layer functions, and the per-layer metrics they give.

Tracing rebinds the names that ``timetrail.pipeline`` (and ``timetrail.explain``
for the calls inside ``aggregate_tis``) look up at call time, so nothing in
``src/`` changes. Each wrapped call records one span; a layer's ``_s`` metric
is its self time (span minus the part its child spans cover) summed over
calls. A wrapped name the program no longer has is skipped, and the metrics
it would feed are absent from the result.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _n_out(args, out) -> int:
    return len(out)


def _n_arg(args, out) -> int:
    return len(args[0])


def _one(args, out) -> int:
    return 1


def _dropped(args, out) -> int:
    return len(args[0]) - len(out[0])


def _windows(args, out) -> int:
    return len(out.points)


def _gbt_rows(args, out) -> int:
    return len(out) if type(args[0]).__name__ == "GBTModel" else 0


# (module, attribute, span, {counter: fn(args, result) -> count}).
# Several attributes may feed one span; the span's self time is "<span>_s".
WRAPPED: tuple[tuple[str, str, str, dict[str, Callable]], ...] = (
    ("timetrail.pipeline", "generate", "simulate.generate", {"simulate.rows_out": _n_out}),
    ("timetrail.pipeline", "load_transactions", "data.parse", {"data.parse_rows": _n_out}),
    ("timetrail.pipeline", "save_transactions", "data.write", {"data.write_rows": _n_arg}),
    ("timetrail.pipeline", "cleanse", "preprocess.cleanse", {"preprocess.rows_dropped": _dropped}),
    ("timetrail.pipeline", "temporal_split", "preprocess.split", {}),
    ("timetrail.pipeline", "enrich", "enrich.enrich", {"enrich.rows": _n_out}),
    ("timetrail.pipeline", "read_enriched_csv", "pipeline.read_enriched",
     {"pipeline.read_enriched_rows": _n_out}),
    ("timetrail.pipeline", "write_enriched_csv", "pipeline.write_enriched", {}),
    ("timetrail.pipeline", "correlation_matrix", "correlate.matrix", {}),
    ("timetrail.pipeline", "dynamic_correlation", "correlate.dynamic",
     {"correlate.dynamic_calls": _one, "correlate.windows": _windows}),
    ("timetrail.pipeline", "raw_feature_table", "features.table", {}),
    ("timetrail.pipeline", "enriched_feature_table", "features.table", {}),
    ("timetrail.pipeline", "fit_scaler", "features.scale", {}),
    ("timetrail.pipeline", "apply_scaler", "features.scale", {}),
    ("timetrail.pipeline", "save_scaler", "features.scale", {}),
    ("timetrail.pipeline", "load_scaler", "features.scale", {}),
    ("timetrail.pipeline", "undersample", "model.undersample", {}),
    ("timetrail.pipeline", "train_gbt", "model.train_gbt", {"model.train_gbt_rows": _n_arg}),
    ("timetrail.pipeline", "train_logistic", "model.train_logistic", {}),
    ("timetrail.pipeline", "predict_proba", "model.predict", {"model.predict_rows": _gbt_rows}),
    ("timetrail.explain", "predict_proba", "model.predict", {"model.predict_rows": _gbt_rows}),
    ("timetrail.pipeline", "load_model", "model.load", {}),
    ("timetrail.pipeline", "save_model", "model.save", {}),
    ("timetrail.pipeline", "evaluate", "metrics.evaluate", {}),
    ("timetrail.pipeline", "compare", "metrics.evaluate", {}),
    ("timetrail.pipeline", "save_report", "metrics.evaluate", {}),
    ("timetrail.pipeline", "aggregate_tis", "explain.aggregate_tis", {}),
    ("timetrail.explain", "attribution_matrix", "explain.attribution", {}),
    ("timetrail.pipeline", "explanation_sequence", "explain.sequence", {"explain.sequences": _one}),
    ("timetrail.pipeline", "sequence_to_json", "explain.to_json", {}),
    ("timetrail.explain", "TISReport.to_json", "explain.to_json", {}),
    ("timetrail.pipeline", "heatmap_to_csv", "plots.render", {}),
    ("timetrail.pipeline", "heatmap_to_json", "plots.render", {}),
    ("timetrail.pipeline", "heatmap_from_json", "plots.render", {}),
    ("timetrail.pipeline", "heatmap_data", "plots.render", {}),
    ("timetrail.pipeline", "heatmap_to_svg", "plots.render", {"plots.svgs": _one}),
    ("timetrail.pipeline", "flagged_frequency_series", "plots.render", {}),
    ("timetrail.pipeline", "series_to_csv", "plots.render", {}),
    ("timetrail.pipeline", "series_to_svg", "plots.render", {"plots.svgs": _one}),
    ("timetrail.pipeline", "tis_histogram", "plots.render", {}),
    ("timetrail.pipeline", "histogram_to_csv", "plots.render", {}),
    ("timetrail.pipeline", "histogram_to_svg", "plots.render", {"plots.svgs": _one}),
    ("timetrail.pipeline", "render_sequence", "plots.render", {"plots.svgs": _one}),
)

STAGES = ("generate", "preprocess", "enrich", "correlate", "train", "evaluate", "explain", "plot")

# Spans around run_all and the entries of its stage table. Their self time is
# orchestration in timetrail.pipeline (artifact hashing and the manifest
# included): pipeline.glue_s.
STAGE_SPAN = "stage.{}"
RUN_ALL_SPAN = "pipeline.run_all"

# name -> (numerator, denominator key in the repetition's row counts)
RATIOS = {
    "pipeline.enriched_reads_per_row": ("pipeline.read_enriched_rows", "cleansed_rows"),
    "model.predict_rows_per_test_row": ("model.predict_rows", "test_rows"),
}

# Reported with the per-layer metrics of a traced run, from outside the trace.
QUALITY_METRICS = ("metrics.average_precision", "metrics.tis")
OVERHEAD_METRIC = "trace.overhead_s"


def _layer_names() -> list[str]:
    names: list[str] = []
    for _, _, span, counters in WRAPPED:
        for name in (f"{span}_s", *counters):
            if name not in names:
                names.append(name)
    return names


PER_LAYER_METRICS: tuple[str, ...] = (
    *_layer_names(),
    *RATIOS,
    "pipeline.glue_s",
    *(STAGE_SPAN.format(s) + "_s" for s in STAGES),
    *QUALITY_METRICS,
    OVERHEAD_METRIC,
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIOS or name in QUALITY_METRICS:
        return "ratio"
    return "count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def durations(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


def install(tracer: Tracer, table=WRAPPED) -> tuple[list[tuple[str, str, str, dict]], Callable[[], None]]:
    """Wrap every name of table that exists; return the wrapped entries and an undo."""
    installed = []
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, span, counters in table:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            continue
        setattr(owner, leaf, _wrapper(tracer, original, span, counters))
        undo.append((owner, leaf, original))
        installed.append((module_name, attr, span, counters))

    def restore() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return installed, restore


def _wrapper(tracer: Tracer, fn: Callable, span: str, counters: dict[str, Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = tracer.run(span, fn, *args, **kwargs)
        for name, count in counters.items():
            tracer.counts[name] += count(args, out)
        return out

    return wrapped


def layer_metrics(tracer: Tracer, installed, row_counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Every installed span and counter is reported, as 0 when it never ran;
    stage.<name>_s is the stage's whole duration, and pipeline.glue_s the
    time inside run_all that no layer span covers.
    """
    own = self_times(tracer.spans)
    total = durations(tracer.spans)
    out: dict[str, float] = {}
    for _, _, span, counters in installed:
        out[f"{span}_s"] = own.get(span, 0.0)
        for name in counters:
            out[name] = tracer.counts.get(name, 0)
    for name, (num, den) in RATIOS.items():
        if num in out and row_counts.get(den):
            out[name] = out[num] / row_counts[den]
    stage_spans = [STAGE_SPAN.format(s) for s in STAGES]
    out["pipeline.glue_s"] = sum(own.get(n, 0.0) for n in (*stage_spans, RUN_ALL_SPAN))
    for name in stage_spans:
        out[f"{name}_s"] = total.get(name, 0.0)
    return out
