"""End-to-end orchestration: config schema, stages, and the run manifest.

Each stage reads its inputs from the output directory and writes its
artifacts back there, so stages can run standalone from the CLI as long as
their upstream files exist. Every writer is deterministic (sorted JSON keys,
repr floats, fixed line endings); running the same config twice produces
byte-identical artifacts, and ``manifest.json`` records the sha256 of each.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .correlate import correlation_matrix, dynamic_correlation
from .data import (
    BASE_COLUMNS,
    CHUNK_ROWS,
    OPTIONAL_COLUMNS,
    STRING_COLUMNS,
    TX_ID_PATTERN,
    columns_to_csv,
    load_transactions,
    load_tx_ids,
    parse_timestamp,
    save_transactions,
    transaction_columns,
)
from .enrich import ATTRIBUTE_NAMES, EnrichConfig, EnrichedTable, enrich
from .explain import aggregate_tis, explanation_sequence, sequence_to_json, tis_report_from_json
from .features import (
    ENRICHED_FEATURES,
    apply_scaler,
    enriched_feature_table,
    fit_scaler,
    load_scaler,
    raw_feature_table,
    save_scaler,
)
from .metrics import compare, evaluate, save_report
from .model import (
    GBTConfig,
    LogisticConfig,
    load_model,
    predict_proba,
    save_model,
    train_gbt,
    train_logistic,
    undersample,
)
from .plots import (
    flagged_frequency_series,
    heatmap_from_json,
    heatmap_to_csv,
    heatmap_to_json,
    heatmap_to_svg,
    histogram_to_csv,
    histogram_to_svg,
    render_sequence,
    series_to_csv,
    series_to_svg,
    tis_histogram,
)
from .preprocess import CleansePolicy, cleanse, temporal_split
from .simulate import ScenarioConfig, generate

STAGES = (
    "generate",
    "preprocess",
    "enrich",
    "correlate",
    "train",
    "evaluate",
    "explain",
    "plot",
)

# Series the windowed-correlation artifact pairs up: the nine temporal
# attributes plus the raw amount.
CORRELATION_SERIES = ATTRIBUTE_NAMES + ("amount",)


@dataclass(frozen=True, slots=True)
class SplitFractions:
    train_frac: float = 0.6
    val_frac: float = 0.2

    def validate(self) -> None:
        if not (0.0 < self.train_frac < 1.0 and 0.0 < self.val_frac < 1.0):
            raise ValueError("split fractions must be in (0, 1)")
        if self.train_frac + self.val_frac >= 1.0:
            raise ValueError("train_frac + val_frac must be below 1 to leave a test part")


@dataclass(frozen=True, slots=True)
class CorrelationConfig:
    window_seconds: int = 86400
    stride_seconds: int = 86400

    def validate(self) -> None:
        if self.window_seconds <= 0 or self.stride_seconds <= 0:
            raise ValueError("correlation window and stride must be positive")
        if self.stride_seconds > self.window_seconds:
            raise ValueError("correlation stride must not exceed the window")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    input_csv: str | None = None  # when set, skips the generator
    generator: ScenarioConfig = field(default_factory=ScenarioConfig)
    cleanse: CleansePolicy = field(default_factory=CleansePolicy)
    split: SplitFractions = field(default_factory=SplitFractions)
    enrich: EnrichConfig = field(default_factory=EnrichConfig)
    correlation: CorrelationConfig = field(default_factory=CorrelationConfig)
    gbt: GBTConfig = field(default_factory=GBTConfig)
    logistic: LogisticConfig = field(default_factory=LogisticConfig)
    undersample_ratio: float | None = 10.0  # None disables undersampling
    threshold: float = 0.5
    temporal_features: tuple[str, ...] = ATTRIBUTE_NAMES
    top_k_explanations: int = 3

    def validate(self) -> None:
        self.generator.validate()
        self.cleanse.validate()
        self.split.validate()
        self.enrich.validate()
        self.correlation.validate()
        self.gbt.validate()
        self.logistic.validate()
        ratio = self.undersample_ratio
        if ratio is not None and not 0.0 < ratio < math.inf:  # NaN fails too
            raise ValueError(f"undersample_ratio must be finite and positive, or null, got {ratio}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.top_k_explanations < 0:
            raise ValueError("top_k_explanations must be non-negative")
        for name in self.temporal_features:
            if name not in ENRICHED_FEATURES:
                raise ValueError(f"unknown temporal feature {name!r}")


def _section(doc: dict, key: str, cls, extra: dict | None = None):
    raw = doc.get(key)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config field '{key}' must be an object")
    allowed = {f.name for f in fields(cls)}
    kwargs = dict(extra or {})
    for k, v in raw.items():
        if k not in allowed:
            raise ValueError(f"unknown config field '{key}.{k}'")
        kwargs[k] = v
    return cls(**kwargs)


def _period_edge(value) -> int:
    if isinstance(value, bool):
        raise ValueError("generator.period values must be epoch seconds or ISO 8601")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        return parse_timestamp(value)
    raise ValueError("generator.period values must be epoch seconds or ISO 8601")


def _parse_period(raw) -> tuple[int, int]:
    if isinstance(raw, dict):
        unknown = set(raw) - {"start", "end"}
        if unknown:
            raise ValueError(f"unknown config field 'generator.period.{sorted(unknown)[0]}'")
        if "start" not in raw or "end" not in raw:
            raise ValueError("generator.period needs both 'start' and 'end'")
        return (_period_edge(raw["start"]), _period_edge(raw["end"]))
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return (_period_edge(raw[0]), _period_edge(raw[1]))
    raise ValueError("generator.period must be {start, end} or a two-element list")


def config_from_dict(
    doc: dict,
    seed: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Build a validated RunConfig; unknown fields fail by name.

    seed / out_dir arguments override the document (the CLI flags map here).
    A seed override also reseeds the generator unless the document pins one.
    """
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    allowed = {f.name for f in fields(RunConfig)}
    for k in doc:
        if k not in allowed:
            raise ValueError(f"unknown config field '{k}'")

    run_seed = seed if seed is not None else int(doc.get("seed", 0))
    if not isinstance(doc.get("generator") or {}, dict):
        raise ValueError("config field 'generator' must be an object")
    gen_raw = dict(doc.get("generator") or {})
    gen_extra: dict = {}
    if "period" in gen_raw:
        gen_extra["period"] = _parse_period(gen_raw.pop("period"))
    if "scenario_mix" in gen_raw:
        mix = gen_raw.pop("scenario_mix")
        if not isinstance(mix, dict):
            raise ValueError("config field 'generator.scenario_mix' must be an object")
        gen_extra["scenario_mix"] = {str(k): float(v) for k, v in mix.items()}
    if "seed" not in gen_raw:
        gen_extra["seed"] = run_seed
    elif seed is not None:
        gen_raw["seed"] = run_seed
    generator = _section({"generator": gen_raw}, "generator", ScenarioConfig, gen_extra)

    temporal = doc.get("temporal_features")
    if temporal is not None and not isinstance(temporal, (list, tuple)):
        raise ValueError("config field 'temporal_features' must be a list of names")
    ratio = doc.get("undersample_ratio", 10.0)
    cfg = RunConfig(
        seed=run_seed,
        out_dir=str(out_dir if out_dir is not None else doc.get("out_dir", "out")),
        input_csv=doc.get("input_csv"),
        generator=generator,
        cleanse=_section(doc, "cleanse", CleansePolicy),
        split=_section(doc, "split", SplitFractions),
        enrich=_section(doc, "enrich", EnrichConfig),
        correlation=_section(doc, "correlation", CorrelationConfig),
        gbt=_section(doc, "gbt", GBTConfig),
        logistic=_section(doc, "logistic", LogisticConfig),
        undersample_ratio=None if ratio is None else float(ratio),
        threshold=float(doc.get("threshold", 0.5)),
        temporal_features=ATTRIBUTE_NAMES if temporal is None else tuple(temporal),
        top_k_explanations=int(doc.get("top_k_explanations", 3)),
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path, seed: int | None = None, out_dir: str | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
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


_FLOAT_COLUMNS = ("amount", "amount_over_user_mean_30d")
_NUMERIC_COLUMNS = {f.name for f in fields(EnrichedTable)}.difference(STRING_COLUMNS)
_INT64 = np.iinfo(np.int64)


def write_enriched_csv(path: Path, rows: EnrichedTable) -> None:
    """Transaction columns plus the nine attributes; floats via repr so reads are exact."""
    _write_text(path, columns_to_csv(rows, transaction_columns(rows) + ATTRIBUTE_NAMES))


def _number_error(name: str, cell: str) -> str | None:
    """Why an enriched file's cell of a numeric column does not read, or None.

    A number is ASCII without '_' (the separators and non-ASCII digits that
    int() and float() also read); an integer must fit int64 and a float must
    be finite, as enrich writes them.
    """
    if cell.isascii() and "_" not in cell:
        try:
            if name in _FLOAT_COLUMNS:
                return None if math.isfinite(float(cell)) else f"must be finite, got {cell!r}"
            if not _INT64.min <= int(cell) <= _INT64.max:
                return f"out of the int64 range: {cell!r}"
            return None
        except ValueError:
            pass
    return f"not {'a number' if name in _FLOAT_COLUMNS else 'an integer'}: {cell!r}"


def _ascii(values: tuple[str, ...]) -> tuple[str, ...]:
    text = "".join(values)
    if not text.isascii() or "_" in text:
        raise ValueError("a numeric cell is not ASCII or holds '_'")
    return values


def _enriched_rows(header: list[str], rows: list[list[str]], shared: dict) -> EnrichedTable:
    """One chunk's table; `shared` keeps one copy of each string but tx_ids.

    A numeric cell that _number_error rejects raises ValueError or
    OverflowError, naming no row: a chunk of good cells passes in a few calls
    over each whole column."""
    raw, n = dict(zip(header, zip(*rows))), len(rows)
    columns = {}
    for name in (f.name for f in fields(EnrichedTable)):
        values = raw.get(name, ("",) * n)
        if name in STRING_COLUMNS[1:]:
            columns[name] = np.array(list(map(shared.setdefault, values, values)), dtype=object)
        elif name == "tx_id":
            columns[name] = np.array(values, dtype=object)
        elif name in _FLOAT_COLUMNS:
            columns[name] = np.fromiter(map(float, _ascii(values)), np.float64, n)
            if not np.isfinite(columns[name]).all():
                raise ValueError(f"non-finite {name}")
        else:
            columns[name] = np.fromiter(map(int, _ascii(values)), np.int64, n)
    return EnrichedTable(**columns)


def _bad_row_error(path: Path, header: list[str]) -> ValueError:
    """The error naming path's first bad row: a field count other than the
    header's, a tx_id outside TX_ID_PATTERN or a numeric cell that does not
    read, as '<path>: line N, field '<name>': <why>'."""
    numeric = [(i, name) for i, name in enumerate(header) if name in _NUMERIC_COLUMNS]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in islice(reader, 1, None):
            line = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                return ValueError(f"{line}: expected {len(header)} fields, got {len(row)}")
            if not TX_ID_PATTERN.fullmatch(row[0]):
                return ValueError(f"{line}: tx_id {row[0]!r} has characters outside [A-Za-z0-9_.-]")
            for i, name in numeric:
                if (why := _number_error(name, row[i])) is not None:
                    return ValueError(f"{line}, field '{name}': {why}")
    return ValueError(f"{path}: changed while it was read")


def read_enriched_csv(path: Path) -> EnrichedTable:
    """An enriched file's table, converted CHUNK_ROWS rows at a time. Each row
    needs the header's field count, a tx_id that TX_ID_PATTERN matches and
    numeric cells that _number_error reads."""
    shared: dict[str, str] = {}
    parts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty enriched file")
        base = list(BASE_COLUMNS + OPTIONAL_COLUMNS[:1])
        if header[: len(base)] != base or header[-9:] != list(ATTRIBUTE_NAMES):
            raise ValueError(f"{path}: unexpected enriched header")
        for rows in iter(lambda: list(islice(reader, CHUNK_ROWS)), []):
            # a chunk of good rows passes in a few calls over the whole chunk
            ids = [r[0] for r in rows] if set(map(len, rows)) == {len(header)} else [""]
            if "" in ids or not TX_ID_PATTERN.fullmatch("".join(ids)):
                raise _bad_row_error(path, header)
            try:
                parts.append(_enriched_rows(header, rows, shared))
            except (ValueError, OverflowError):
                raise _bad_row_error(path, header) from None
    return EnrichedTable.concat(parts or [_enriched_rows(header, [], shared)])


def _read_all_enriched(cfg: RunConfig) -> EnrichedTable:
    """Train, val, and test back to back: chronological because the split is."""
    return EnrichedTable.concat(
        [read_enriched_csv(_out(cfg, f"enriched_{p}.csv")) for p in ("train", "val", "test")]
    )


def _undersample_seed(cfg: RunConfig) -> int:
    return int(np.random.SeedSequence([cfg.seed, 1001]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# stages; each returns (relative path, stage name) pairs for the manifest


def stage_generate(cfg: RunConfig) -> list[tuple[str, str]]:
    if cfg.input_csv is not None:
        d = load_transactions(cfg.input_csv)
    else:
        d = generate(cfg.generator)
    save_transactions(d, _out(cfg, "dataset.csv"))
    return [("dataset.csv", "generate")]


def stage_preprocess(cfg: RunConfig) -> list[tuple[str, str]]:
    d = load_transactions(_out(cfg, "dataset.csv"))
    clean, report = cleanse(d, cfg.cleanse)
    save_transactions(clean, _out(cfg, "cleansed.csv"))
    _write_text(_out(cfg, "cleanse_report.json"), report.to_json())
    split = temporal_split(clean, cfg.split.train_frac, cfg.split.val_frac)
    paths = [("cleansed.csv", "preprocess"), ("cleanse_report.json", "preprocess")]
    for part, part_ds in (("train", split.train), ("val", split.val), ("test", split.test)):
        name = f"split_{part}.csv"
        save_transactions(part_ds, _out(cfg, name))
        paths.append((name, "preprocess"))
    return paths


def stage_enrich(cfg: RunConfig) -> list[tuple[str, str]]:
    """Enrich over the full cleansed timeline, then slice back into splits.

    The attributes only look backward, so later splits see their true history
    without leaking anything into earlier ones. The splits are consecutive
    runs of cleansed.csv, so each is the next slice of the enriched table,
    as long as its split file; slicing by position keeps rows that share a
    tx_id apart.
    """
    enriched = enrich(load_transactions(_out(cfg, "cleansed.csv")), cfg.enrich)
    paths = []
    start = 0
    for part in ("train", "val", "test"):
        tx_ids = load_tx_ids(_out(cfg, f"split_{part}.csv"))
        rows = enriched[start : start + len(tx_ids)]
        start += len(tx_ids)
        if rows.tx_id.tolist() != tx_ids:
            raise ValueError(f"split_{part}.csv is not the next run of cleansed.csv")
        name = f"enriched_{part}.csv"
        write_enriched_csv(_out(cfg, name), rows)
        paths.append((name, "enrich"))
    return paths


def stage_correlate(cfg: RunConfig) -> list[tuple[str, str]]:
    rows = _read_all_enriched(cfg)
    window = None
    if len(rows):
        window = (int(rows.timestamp[0]), int(rows.timestamp[-1]))
    m = correlation_matrix(rows, CORRELATION_SERIES, window=window)
    _write_text(_out(cfg, "heatmap_all.csv"), heatmap_to_csv(m))
    _write_text(_out(cfg, "heatmap_all.json"), heatmap_to_json(m))

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["attr_a", "attr_b", "window_start", "window_end", "coefficient"])
    for i, a in enumerate(CORRELATION_SERIES):
        for b in CORRELATION_SERIES[i + 1 :]:
            series = dynamic_correlation(
                rows, (a, b), cfg.correlation.window_seconds, cfg.correlation.stride_seconds
            )
            for start, r in series.points:
                w.writerow(
                    [a, b, start, start + cfg.correlation.window_seconds,
                     "" if r is None else repr(float(r))]
                )
    _write_text(_out(cfg, "dynamic_corr.csv"), out.getvalue())
    return [
        ("heatmap_all.csv", "correlate"),
        ("heatmap_all.json", "correlate"),
        ("dynamic_corr.csv", "correlate"),
    ]


def _scaled_tables(cfg: RunConfig, part: str):
    """(baseline table, timetrail table) for a split, scaled by saved params."""
    rows = read_enriched_csv(_out(cfg, f"enriched_{part}.csv"))
    raw = raw_feature_table(rows)
    enr = enriched_feature_table(rows)
    raw = apply_scaler(load_scaler(_out(cfg, "scaler_baseline.json")), raw)
    enr = apply_scaler(load_scaler(_out(cfg, "scaler_timetrail.json")), enr)
    return raw, enr


def stage_train(cfg: RunConfig) -> list[tuple[str, str]]:
    rows = read_enriched_csv(_out(cfg, "enriched_train.csv"))
    raw = raw_feature_table(rows)
    enr = enriched_feature_table(rows)

    raw_scaler = fit_scaler(raw)
    enr_scaler = fit_scaler(enr)
    save_scaler(raw_scaler, _out(cfg, "scaler_baseline.json"))
    save_scaler(enr_scaler, _out(cfg, "scaler_timetrail.json"))
    raw = apply_scaler(raw_scaler, raw)
    enr = apply_scaler(enr_scaler, enr)

    if cfg.undersample_ratio is not None:
        seed = _undersample_seed(cfg)
        # Same labels and seed on both tables, so both models train on the
        # exact same undersampled rows.
        raw = undersample(raw, cfg.undersample_ratio, seed)
        enr = undersample(enr, cfg.undersample_ratio, seed)

    baseline = train_logistic(raw, cfg.logistic)
    timetrail = train_gbt(enr, cfg.gbt)
    save_model(baseline, _out(cfg, "model_baseline.json"))
    save_model(timetrail, _out(cfg, "model_timetrail.json"))
    return [
        ("scaler_baseline.json", "train"),
        ("scaler_timetrail.json", "train"),
        ("model_baseline.json", "train"),
        ("model_timetrail.json", "train"),
    ]


def stage_evaluate(cfg: RunConfig) -> list[tuple[str, str]]:
    raw, enr = _scaled_tables(cfg, "test")
    if raw.labels is None:
        raise ValueError("test split is unlabeled; evaluation needs labels")
    baseline = load_model(_out(cfg, "model_baseline.json"))
    timetrail = load_model(_out(cfg, "model_timetrail.json"))

    tis_report = aggregate_tis(timetrail, enr, cfg.temporal_features, cfg.threshold)
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
    table = compare(base_report, tt_report)
    _write_text(_out(cfg, "comparison.csv"), table.to_csv())
    _write_text(_out(cfg, "comparison.txt"), table.to_text())
    _write_text(_out(cfg, "tis_report.json"), tis_report.to_json())
    return [
        ("eval_baseline.json", "evaluate"),
        ("eval_timetrail.json", "evaluate"),
        ("comparison.csv", "evaluate"),
        ("comparison.txt", "evaluate"),
        ("tis_report.json", "evaluate"),
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
    flagged = sorted(np.flatnonzero(probs >= threshold).tolist(), key=lambda i: (-p[i], tx_ids[i]))
    chosen: list[int] = []
    seen: set[str] = set()
    for i in flagged:
        if len(chosen) == top_k:
            break
        if tx_ids[i] not in seen:
            seen.add(tx_ids[i])
            chosen.append(i)
    return chosen


def stage_explain(cfg: RunConfig) -> list[tuple[str, str]]:
    _, enr = _scaled_tables(cfg, "test")
    timetrail = load_model(_out(cfg, "model_timetrail.json"))
    probs = predict_proba(timetrail, enr)
    paths = []
    for i in explained_rows(probs, enr.tx_ids, cfg.threshold, cfg.top_k_explanations):
        seq = explanation_sequence(timetrail, enr, i, cfg.temporal_features)
        name = f"sequence_{enr.tx_ids[i]}.json"
        _write_text(_out(cfg, name), sequence_to_json(seq))
        paths.append((name, "explain"))
    return paths


def stage_plot(cfg: RunConfig) -> list[tuple[str, str]]:
    paths = []

    with open(_out(cfg, "heatmap_all.json"), "r", encoding="utf-8") as fh:
        m = heatmap_from_json(fh.read())
    _write_text(_out(cfg, "heatmap_all.svg"), heatmap_to_svg(m))
    paths.append(("heatmap_all.svg", "plot"))

    _, enr = _scaled_tables(cfg, "test")
    test_rows = read_enriched_csv(_out(cfg, "enriched_test.csv"))
    probs = predict_proba(load_model(_out(cfg, "model_timetrail.json")), enr)
    flags = (probs >= cfg.threshold).astype(int).tolist()
    points = list(zip(test_rows.timestamp.tolist(), flags))
    labels = None
    if (test_rows.label != "").all():
        labels = (test_rows.label == "fraud").astype(int).tolist()
    series = flagged_frequency_series(points, cfg.correlation.window_seconds, labels)
    _write_text(_out(cfg, "flag_series.csv"), series_to_csv(series))
    _write_text(_out(cfg, "flag_series.svg"), series_to_svg(series))
    paths.append(("flag_series.csv", "plot"))
    paths.append(("flag_series.svg", "plot"))

    with open(_out(cfg, "tis_report.json"), "r", encoding="utf-8") as fh:
        report = tis_report_from_json(fh.read())
    hist = tis_histogram(report)
    _write_text(_out(cfg, "tis_hist.csv"), histogram_to_csv(hist))
    _write_text(_out(cfg, "tis_hist.svg"), histogram_to_svg(hist))
    paths.append(("tis_hist.csv", "plot"))
    paths.append(("tis_hist.svg", "plot"))

    # only this run's sequences: the directory may hold an earlier run's
    explained = explained_rows(probs, enr.tx_ids, cfg.threshold, cfg.top_k_explanations)
    for seq_name in sorted(f"sequence_{enr.tx_ids[i]}.json" for i in explained):
        with open(_out(cfg, seq_name), "r", encoding="utf-8") as fh:
            seq = json.load(fh)
        name = seq_name.removesuffix(".json") + ".svg"
        _write_text(_out(cfg, name), render_sequence(seq))
        paths.append((name, "plot"))
    return paths


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


def run_stage(cfg: RunConfig, stage: str) -> list[tuple[str, str]]:
    if stage not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return _STAGE_FUNCS[stage](cfg)


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
    os.makedirs(cfg.out_dir, exist_ok=True)
    entries: list[dict] = []
    for stage in STAGES:
        for rel, st in _STAGE_FUNCS[stage](cfg):
            entries.append(
                {"path": rel, "sha256": _sha256_of(Path(cfg.out_dir) / rel), "stage": st}
            )
    _write_text(_out(cfg, "manifest.json"), json.dumps(entries, indent=2, sort_keys=True))
    return entries
