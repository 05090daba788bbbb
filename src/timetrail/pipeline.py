"""End-to-end orchestration: config schema, stages, and the run manifest.

Each stage reads its inputs from the output directory, writes its artifacts
back there and returns their names in the order it wrote them; ``run_stage``
pairs each name with the stage, and ``run_all`` lists the pairs, with each
file's sha256, in ``manifest.json``. Stages can run standalone from the CLI
as long as their upstream files exist. Every writer is deterministic (sorted
JSON keys, repr floats, fixed line endings), so running the same config twice
produces byte-identical artifacts.

Every CSV file, transaction or enriched, is read and written by ``data``,
the one module that knows the CSV format.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .correlate import CorrelationConfig, correlation_matrix, dynamic_correlation
from .data import (
    _INT64,
    load_transactions,
    parse_timestamp,
    rows_to_csv,
    save_transactions,
    serialize_transactions,
)
from .enrich import ATTRIBUTE_NAMES, EnrichedTable, enrich, read_enriched_csv
from .explain import aggregate_tis, explanation_sequence, sequence_to_json
from .features import (
    FeatureTable,
    apply_scaler,
    enriched_feature_table,
    fit_scaler,
    load_scaler,
    raw_feature_table,
    save_scaler,
)
from .metrics import compare, comparison_to_text, evaluate, save_report
from .model import (
    GBTConfig,
    GBTModel,
    LogisticConfig,
    LogisticModel,
    Model,
    aligned_rows,
    check_training_table,
    load_model,
    predict_proba,
    save_model,
    train_gbt,
    train_logistic,
    undersample,
)
from .plots import (
    COEFFICIENT_HEADER,
    flagged_frequency_series,
    heatmap_to_csv,
    heatmap_to_json,
    heatmap_to_svg,
    histogram_to_svg,
    render_sequence,
    series_to_svg,
    tis_histogram,
)
from .preprocess import MANDATORY_FIELDS, CleansePolicy, SplitFractions, cleanse, temporal_split
from .simulate import ScenarioConfig, generate

# Series the windowed-correlation artifact pairs up: the nine temporal
# attributes plus the raw amount.
CORRELATION_SERIES = ATTRIBUTE_NAMES + ("amount",)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    input_csv: str | None = None  # when set, skips the generator
    generator: ScenarioConfig = field(default_factory=ScenarioConfig)
    cleanse: CleansePolicy = field(default_factory=CleansePolicy)
    split: SplitFractions = field(default_factory=SplitFractions)
    correlation: CorrelationConfig = field(default_factory=CorrelationConfig)
    gbt: GBTConfig = field(default_factory=GBTConfig)
    logistic: LogisticConfig = field(default_factory=LogisticConfig)
    undersample_ratio: float | None = 10.0  # None disables undersampling
    threshold: float = 0.5
    top_k_explanations: int = 3

    def __post_init__(self) -> None:
        """The run's own rules; each section checked its own when it was built."""
        # numpy seeds only from non-negative integers
        for name, seed in (("seed", self.seed), ("generator.seed", self.generator.seed)):
            if seed < 0:
                raise _rejected(name, "non-negative", seed)
        ratio = self.undersample_ratio
        if ratio is not None and not 0.0 < ratio < math.inf:  # NaN fails too
            raise ValueError(f"undersample_ratio must be finite and positive, or null, got {ratio}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.top_k_explanations < 0:
            raise ValueError("top_k_explanations must be non-negative")


def _rejected(name: str, kind: str, value) -> ValueError:
    return ValueError(f"config field '{name}' must be {kind}, got {json.dumps(value, default=repr)}")


def _read(tp, value, name: str):
    """`value` from a JSON document read as the declared type `tp`.

    An int may be written as a real with no fraction and must fit int64; a
    float is any finite number, read as a float. bool and str take only
    themselves. A dataclass is an object of its fields, where null means the
    field's default unless the field is optional. The items of an integer
    pair (a period) may also be ISO 8601 strings. A rejection names the field
    by its dotted path; a section that breaks its own rules, by its name.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _rejected(name, "an object", value)
        hints = get_type_hints(tp)
        kwargs = {}
        for key, item in value.items():
            path = f"{name}.{key}" if name else key
            if key not in hints:
                raise ValueError(f"unknown config field '{path}'")
            if item is not None or type(None) in get_args(hints[key]):
                kwargs[key] = _read(hints[key], item, path)
        try:
            return tp(**kwargs)
        except ValueError as e:  # the root's own rules name their fields
            raise ValueError(f"config field '{name}': {e}") if name else e from None
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if value is None else _read(args[0], value, name)
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise _rejected(name, f"a list of {len(args)} items", value)
        if args == (int, int):
            try:
                value = [parse_timestamp(v) if isinstance(v, str) else v for v in value]
            except ValueError:
                raise _rejected(name, "epoch seconds or ISO 8601 times", value) from None
        return tuple(_read(t, v, f"{name}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise _rejected(name, "an object", value)
        return {k: _read(args[1], v, f"{name}.{k}") for k, v in value.items()}
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            raise _rejected(name, "true or false" if tp is bool else "a string", value)
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _rejected(name, "an integer" if tp is int else "a number", value)
    if tp is int:
        if isinstance(value, float) and not value.is_integer():
            raise _rejected(name, "an integer", value)
        if not _INT64.min <= value <= _INT64.max:
            raise _rejected(name, "an integer within int64", value)
        return int(value)
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails too
        raise _rejected(name, "finite", value)
    return float(value)


def config_from_dict(
    doc: dict,
    seed: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Build a RunConfig, reading each field by its declared type.

    seed / out_dir arguments override the document (the CLI flags map here).
    The generator takes the run seed unless the document pins one; a seed
    override reseeds it either way.
    """
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    overrides = {k: v for k, v in (("seed", seed), ("out_dir", out_dir)) if v is not None}
    cfg = _read(RunConfig, doc | overrides, "")
    if seed is not None or (doc.get("generator") or {}).get("seed") is None:
        cfg = replace(cfg, generator=replace(cfg.generator, seed=cfg.seed))
    return cfg


def load_config(path: str | Path, seed: int | None = None, out_dir: str | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as e:  # too deep, not UTF-8
            raise ValueError(f"config is not valid JSON: {e}") from e
    return config_from_dict(doc, seed=seed, out_dir=out_dir)


# ---------------------------------------------------------------------------
# artifact I/O helpers


def _out(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.out_dir) / name


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@contextmanager
def _about(path: Path):
    """Code that reads or uses the file at path, where a file that is not what
    it should be (invalid JSON, JSON nested too deeply to read, a missing key,
    a value of the wrong type or range, too few rows) fails as a ValueError
    that names the path. A missing or unreadable file stays an OSError."""
    try:
        yield
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from None
    except (ValueError, TypeError, AttributeError, IndexError, OverflowError, RecursionError) as e:
        raise ValueError(f"{path}: {e}") from None


def write_enriched_csv(path: Path, rows: EnrichedTable) -> None:
    _write_text(path, serialize_transactions(rows))


def _undersample_seed(cfg: RunConfig) -> int:
    return int(np.random.SeedSequence([cfg.seed, 1001]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# stages; each returns the names of the artifacts it wrote


def stage_generate(cfg: RunConfig) -> list[str]:
    if cfg.input_csv is not None:
        d = load_transactions(cfg.input_csv)
    else:
        d = generate(cfg.generator)
    save_transactions(d, _out(cfg, "dataset.csv"))
    return ["dataset.csv"]


def stage_preprocess(cfg: RunConfig) -> list[str]:
    d = load_transactions(_out(cfg, "dataset.csv"))
    clean, report = cleanse(d, cfg.cleanse)
    with _about(_out(cfg, "dataset.csv")):
        split = temporal_split(clean, cfg.split)
    save_transactions(clean, _out(cfg, "cleansed.csv"))
    _write_text(_out(cfg, "cleanse_report.json"), json.dumps(report, indent=2, sort_keys=True))
    for part, part_ds in split.items():
        save_transactions(part_ds, _out(cfg, f"split_{part}.csv"))
    return ["cleansed.csv", "cleanse_report.json", *(f"split_{part}.csv" for part in split)]


def stage_enrich(cfg: RunConfig) -> list[str]:
    """Enrich over the full cleansed timeline, then cut it as preprocess did.

    The attributes only look backward, so later splits see their true history
    without leaking anything into earlier ones. temporal_split reads only the
    timestamps, and enrich keeps cleansed.csv's row order, so the cut falls
    where preprocess's did; no split file is read.
    """
    cleansed = load_transactions(_out(cfg, "cleansed.csv"), required=MANDATORY_FIELDS)
    with _about(_out(cfg, "cleansed.csv")):
        split = temporal_split(enrich(cleansed), cfg.split)
    for part, rows in split.items():
        write_enriched_csv(_out(cfg, f"enriched_{part}.csv"), rows)
    return [f"enriched_{part}.csv" for part in split]


def _parts_in_time(cfg: RunConfig) -> list[EnrichedTable]:
    """The enriched train, val and test tables, which back to back must be in
    time order. Each is read sorted, so a part with rows is refused, by its
    path, only if it starts before the last part with rows ends."""
    parts, end = [], None  # end: (file name, last timestamp) of the last part with rows
    for p in ("train", "val", "test"):
        part = read_enriched_csv(path := _out(cfg, f"enriched_{p}.csv"))
        if len(part):
            if end is not None and part.timestamp[0] < end[1]:
                raise ValueError(f"{path}: starts at {part.timestamp[0]}, before {end[0]} ends at {end[1]}")
            end = (path.name, part.timestamp[-1])
        parts.append(part)
    return parts


def stage_correlate(cfg: RunConfig) -> list[str]:
    rows = EnrichedTable.concat(_parts_in_time(cfg))
    window, stride = cfg.correlation.window_seconds, cfg.correlation.stride_seconds
    if len(rows):  # window_end is written as start + window, so it must fit int64
        first, last = int(rows.timestamp[0]), int(rows.timestamp[-1])
        if last - (last - first) % stride + window > _INT64.max:
            raise ValueError(f"correlation.window_seconds {window} ends the last window past int64")
    m = correlation_matrix(rows, CORRELATION_SERIES)
    _write_text(_out(cfg, "heatmap_all.csv"), heatmap_to_csv(m))
    _write_text(_out(cfg, "heatmap_all.json"), heatmap_to_json(m))

    coefficients = (
        (a, b, start, start + window, r)
        for i, a in enumerate(CORRELATION_SERIES)
        for b in CORRELATION_SERIES[i + 1 :]
        for start, r in dynamic_correlation(rows, (a, b), cfg.correlation).points
    )
    _write_text(_out(cfg, "dynamic_corr.csv"), rows_to_csv(COEFFICIENT_HEADER, coefficients))
    return ["heatmap_all.csv", "heatmap_all.json", "dynamic_corr.csv"]


def _models() -> tuple[tuple[str, Callable[[EnrichedTable], FeatureTable]], ...]:
    """(kind, the function that makes its feature table) of the baseline and
    the timetrail model, looked up at each call, so a rebound name is used."""
    return (("baseline", raw_feature_table), ("timetrail", enriched_feature_table))


_MODEL_TYPES = {"baseline": LogisticModel, "timetrail": GBTModel}


def _load_fitted(cfg: RunConfig, kind: str, table: FeatureTable) -> tuple[FeatureTable, Model]:
    """table scaled by scaler_<kind>.json, and model_<kind>.json, which must
    be the kind's model type and take the scaled table's features; `kind` is
    baseline or timetrail."""
    with _about(path := _out(cfg, f"scaler_{kind}.json")):
        scaled = apply_scaler(load_scaler(path), table)
    with _about(path := _out(cfg, f"model_{kind}.json")):
        model = load_model(path)
        if not isinstance(model, want := _MODEL_TYPES[kind]):
            raise ValueError(f"the {kind} model must be a {want.__name__}, got a {type(model).__name__}")
        aligned_rows(model.feature_names, scaled)
    return scaled, model


def stage_train(cfg: RunConfig) -> list[str]:
    rows = read_enriched_csv(path := _out(cfg, "enriched_train.csv"), labeled=True)
    scalers, tables = {}, {}  # one unscaled table at a time, and no file written before both pass
    for kind, features in _models():
        table = features(rows)
        with _about(path):  # no rows, or one class only
            check_training_table(table)
        scalers[kind] = fit_scaler(table)
        table = apply_scaler(scalers[kind], table)
        if cfg.undersample_ratio is not None:
            # the same labels and seed for both tables, so both models train
            # on the exact same undersampled rows
            table = undersample(table, cfg.undersample_ratio, _undersample_seed(cfg))
        tables[kind] = table
    for kind, scaler in scalers.items():
        save_scaler(scaler, _out(cfg, f"scaler_{kind}.json"))
    save_model(train_logistic(tables["baseline"], cfg.logistic), _out(cfg, "model_baseline.json"))
    save_model(train_gbt(tables["timetrail"], cfg.gbt), _out(cfg, "model_timetrail.json"))
    return [f"{artifact}_{kind}.json" for artifact in ("scaler", "model") for kind, _ in _models()]


def stage_evaluate(cfg: RunConfig) -> list[str]:
    rows = read_enriched_csv(_out(cfg, "enriched_test.csv"), labeled=True)
    (raw, baseline), (enr, timetrail) = (
        _load_fitted(cfg, kind, features(rows)) for kind, features in _models()
    )

    tis_report = aggregate_tis(timetrail, enr, threshold=cfg.threshold)
    base_report = evaluate(
        raw.labels, predict_proba(baseline, raw), cfg.threshold, raw.tx_ids, "baseline"
    )
    tt_report = evaluate(
        enr.labels,
        predict_proba(timetrail, enr),
        cfg.threshold,
        enr.tx_ids,
        "timetrail",
        tis_aggregate=tis_report.aggregate,
    )
    save_report(base_report, _out(cfg, "eval_baseline.json"))
    save_report(tt_report, _out(cfg, "eval_timetrail.json"))
    comparison = compare(base_report, tt_report)
    _write_text(_out(cfg, "comparison.csv"), rows_to_csv(("metric", "baseline", "timetrail"), comparison))
    _write_text(_out(cfg, "comparison.txt"), comparison_to_text(comparison))
    _write_text(_out(cfg, "tis_report.json"), tis_report.to_json())
    return [
        "eval_baseline.json",
        "eval_timetrail.json",
        "comparison.csv",
        "comparison.txt",
        "tis_report.json",
    ]


def explained_rows(
    probs: np.ndarray, tx_ids: Sequence[str], threshold: float, top_k: int
) -> list[int]:
    """The rows explain writes a sequence for, best first.

    Flagged rows (probability >= threshold) by descending probability, then
    tx_id; a tx_id shared by several rows gets only its best-ranked row, so
    each sequence file is written once. At most top_k rows.
    """
    p = probs.tolist()
    best: dict[str, int] = {}
    for i in sorted(np.flatnonzero(probs >= threshold).tolist(), key=lambda i: (-p[i], tx_ids[i])):
        best.setdefault(tx_ids[i], i)
    return list(best.values())[:top_k]


def stage_explain(cfg: RunConfig) -> list[str]:
    enr = enriched_feature_table(read_enriched_csv(_out(cfg, "enriched_test.csv")))
    enr, timetrail = _load_fitted(cfg, "timetrail", enr)
    probs = predict_proba(timetrail, enr)
    names = []
    for i in explained_rows(probs, enr.tx_ids, cfg.threshold, cfg.top_k_explanations):
        seq = explanation_sequence(timetrail, enr, i)
        name = f"sequence_{enr.tx_ids[i]}.json"
        _write_text(_out(cfg, name), sequence_to_json(seq))
        names.append(name)
    return names


def stage_plot(cfg: RunConfig) -> list[str]:
    enr = enriched_feature_table(read_enriched_csv(_out(cfg, "enriched_test.csv"), labeled=True))
    test_rows = read_enriched_csv(_out(cfg, "enriched_test.csv"))
    enr, timetrail = _load_fitted(cfg, "timetrail", enr)
    probs = predict_proba(timetrail, enr)

    with _about(path := _out(cfg, "heatmap_all.json")):
        svg = heatmap_to_svg(json.loads(path.read_text(encoding="utf-8")))
    _write_text(_out(cfg, "heatmap_all.svg"), svg)

    series = flagged_frequency_series(
        test_rows.timestamp, probs >= cfg.threshold, enr.labels, cfg.correlation.window_seconds
    )
    series_csv = rows_to_csv(("window_start", "flagged_count", "fraud_count"), series)
    _write_text(_out(cfg, "flag_series.csv"), series_csv)
    _write_text(_out(cfg, "flag_series.svg"), series_to_svg(series, cfg.correlation.window_seconds))

    with _about(path := _out(cfg, "tis_report.json")):
        hist = tis_histogram(r["tis"] for r in json.loads(path.read_text(encoding="utf-8"))["per_tx"])
    _write_text(_out(cfg, "tis_hist.csv"), rows_to_csv(("bin_start", "bin_end", "count"), hist))
    _write_text(_out(cfg, "tis_hist.svg"), histogram_to_svg(hist))
    names = ["heatmap_all.svg", "flag_series.csv", "flag_series.svg", "tis_hist.csv", "tis_hist.svg"]

    # only this run's sequences: the directory may hold an earlier run's
    explained = explained_rows(probs, enr.tx_ids, cfg.threshold, cfg.top_k_explanations)
    for seq_name in sorted(f"sequence_{enr.tx_ids[i]}.json" for i in explained):
        with _about(path := _out(cfg, seq_name)):
            svg = render_sequence(json.loads(path.read_text(encoding="utf-8")))
        name = seq_name.removesuffix(".json") + ".svg"
        _write_text(_out(cfg, name), svg)
        names.append(name)
    return names


_STAGE_FUNCS = {
    "generate": stage_generate,
    "preprocess": stage_preprocess,
    "enrich": stage_enrich,
    "correlate": stage_correlate,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "explain": stage_explain,
    "plot": stage_plot,
}
STAGES = tuple(_STAGE_FUNCS)  # in run order


def run_stage(cfg: RunConfig, stage: str) -> list[tuple[str, str]]:
    """Run one stage; the (name, stage) pair of each artifact it wrote."""
    if stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return [(name, stage) for name in _STAGE_FUNCS[stage](cfg)]


def _sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_all(cfg: RunConfig) -> list[dict]:
    """All stages in order; returns the manifest entries it wrote.

    The manifest lists every artifact with its sha256 but not itself, so two
    runs can be compared by comparing the manifest files alone.
    """
    entries = [
        {"path": rel, "sha256": _sha256_of(_out(cfg, rel)), "stage": st}
        for stage in STAGES
        for rel, st in run_stage(cfg, stage)
    ]
    _write_text(_out(cfg, "manifest.json"), json.dumps(entries, indent=2, sort_keys=True))
    return entries
