"""Checks on the artifacts of one repetition; each returns a list of problems."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Files a whole run leaves behind, apart from the sequence_<tx_id> files.
ARTIFACTS = (
    "dataset.csv", "cleansed.csv", "cleanse_report.json",
    "split_train.csv", "split_val.csv", "split_test.csv",
    "enriched_train.csv", "enriched_val.csv", "enriched_test.csv",
    "heatmap_all.csv", "heatmap_all.json", "heatmap_all.svg", "dynamic_corr.csv",
    "scaler_baseline.json", "scaler_timetrail.json", "model_baseline.json", "model_timetrail.json",
    "eval_baseline.json", "eval_timetrail.json", "comparison.csv", "comparison.txt", "tis_report.json",
    "flag_series.csv", "flag_series.svg", "tis_hist.csv", "tis_hist.svg", "manifest.json",
)

# Quality metrics the benchmark reports; the timetrail model must define them.
QUALITY = ("auc_roc", "average_precision", "tis")
COMPLETENESS_TOLERANCE = 1e-9


def check_artifacts(out: Path, top_k: int) -> list[str]:
    """Every artifact of a whole run exists, with one sequence per top flagged row."""
    problems = [f"missing artifact {name}" for name in ARTIFACTS if not (out / name).is_file()]
    if problems:
        return problems
    flagged = json.loads((out / "tis_report.json").read_text(encoding="utf-8"))["flagged_tx_ids"]
    want = min(top_k, len(flagged))
    for suffix in (".json", ".svg"):
        got = len(list(out.glob(f"sequence_*{suffix}")))
        if got != want:
            problems.append(f"{got} sequence_*{suffix} files, expected {want}")
    return problems


def check_reports(out: Path) -> list[str]:
    """Both eval JSONs parse and carry all seven metrics; timetrail's quality is defined."""
    from timetrail.metrics import load_report

    problems = []
    for model in ("baseline", "timetrail"):
        try:
            report = load_report(out / f"eval_{model}.json")
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"eval_{model}.json unreadable: {e}")
            continue
        if model == "timetrail":
            problems += [f"eval_timetrail.json: {m} undefined" for m in QUALITY if report.metric(m) is None]
    return problems


def check_completeness(out: Path) -> list[str]:
    """Bias plus each test row's attributions equals the GBT margin."""
    from timetrail.explain import attribution_matrix
    from timetrail.features import apply_scaler, enriched_feature_table, load_scaler
    from timetrail.model import load_model
    from timetrail.pipeline import read_enriched_csv

    model = load_model(out / "model_timetrail.json")
    table = apply_scaler(
        load_scaler(out / "scaler_timetrail.json"),
        enriched_feature_table(read_enriched_csv(out / "enriched_test.csv")),
    )
    contrib, bias = attribution_matrix(model, table)
    err = float(np.max(np.abs(bias + contrib.sum(axis=1) - model.margin(table)), initial=0.0))
    if not err <= COMPLETENESS_TOLERANCE:
        return [f"attribution sum misses the margin by {err:.3g}"]
    return []


def check_manifest(out: Path) -> list[str]:
    """Every artifact still has the sha256 its manifest entry records."""
    from timetrail.pipeline import _sha256_of

    entries = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return [f"{e['path']} differs from its manifest entry" for e in entries
            if _sha256_of(out / e["path"]) != e["sha256"]]


def check_outputs(out: Path, top_k: int) -> list[str]:
    problems = check_artifacts(out, top_k)
    if problems:
        return problems
    return check_manifest(out) + check_reports(out) + check_completeness(out)
