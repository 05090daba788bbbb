"""Classification metrics with honest undefined handling, and report comparison.

Fraud is the positive class. ``evaluate`` counts the confusion cells at one
threshold and divides them; any metric whose denominator is zero is None
(serialized as null), never a silent 0. AUC uses the rank statistic with
average ranks, so tied scores earn half credit, which equals trapezoidal
integration of the ROC curve. ``compare`` gives two reports side by side as
plain (metric, baseline, timetrail) rows, for a CSV writer or
``comparison_to_text``.

Labels are 0 and 1, scores finite, and tx_ids, labels and scores one per
row, as a labeled FeatureTable and predict_proba of it give them; the
table's constructor checks that, so nothing here checks it again.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

METRIC_NAMES = (
    "accuracy",
    "precision",
    "recall",
    "f1",
    "auc_roc",
    "average_precision",
    "tis",
)


def _tie_runs(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of equal scores in a sorted array."""
    ends = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    return np.concatenate(([0], ends + 1)), np.append(ends, sorted_scores.size - 1)


def auc_roc(labels: Sequence[int], scores: Sequence[float]) -> float | None:
    """Rank-based AUC; ties between classes count half. None if one class."""
    y, s = np.asarray(labels, dtype=np.int64), np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(s, kind="mergesort")
    first, last = _tie_runs(s[order])
    ranks = np.empty(y.size, dtype=np.float64)
    # each run shares its average 1-based rank
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(labels: Sequence[int], scores: Sequence[float]) -> float | None:
    """Step-weighted precision over the descending score sweep, ties grouped."""
    y, s = np.asarray(labels, dtype=np.int64), np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-s, kind="mergesort")
    _, last = _tie_runs(s[order])
    tp = np.cumsum(y[order])[last]
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / (last + 1))
    # cumsum adds the terms left to right, as a running total would
    return float(np.cumsum(terms)[-1])


def dataset_fingerprint(tx_ids: Sequence[str]) -> str:
    """Content hash of the evaluation rows, order-sensitive."""
    h = hashlib.sha256()
    for t in tx_ids:
        h.update(t.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class EvaluationReport:
    model_name: str
    threshold: float
    fingerprint: str
    row_count: int
    metrics: dict[str, float | None]  # keyed by METRIC_NAMES

    def metric(self, name: str) -> float | None:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")
        return self.metrics[name]


def evaluate(
    labels: Sequence[int],
    scores: Sequence[float],
    threshold: float,
    tx_ids: Sequence[str],
    model_name: str,
    tis_aggregate: float | None = None,
) -> EvaluationReport:
    """Score a labeled set at one decision threshold."""
    y, s = np.asarray(labels, dtype=np.int64), np.asarray(scores, dtype=np.float64)
    flagged = s >= threshold
    tp = int((flagged & (y == 1)).sum())
    fp = int(flagged.sum()) - tp
    fn = int(y.sum()) - tp
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0.0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return EvaluationReport(
        model_name=model_name,
        threshold=threshold,
        fingerprint=dataset_fingerprint(tx_ids),
        row_count=int(y.size),
        metrics={
            "accuracy": (y.size - fp - fn) / y.size if y.size else None,
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "auc_roc": auc_roc(y, s),
            "average_precision": average_precision(y, s),
            "tis": tis_aggregate,
        },
    )


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "model": report.model_name,
        "threshold": report.threshold,
        "fingerprint": report.fingerprint,
        "row_count": report.row_count,
        "metrics": report.metrics,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def report_from_json(text: str) -> EvaluationReport:
    doc = json.loads(text)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("report has no 'metrics' object")
    for name in METRIC_NAMES:
        if name not in metrics:
            raise ValueError(f"report missing metric {name!r}")
    return EvaluationReport(
        model_name=str(doc["model"]),
        threshold=float(doc["threshold"]),
        fingerprint=str(doc["fingerprint"]),
        row_count=int(doc["row_count"]),
        metrics={name: metrics[name] for name in METRIC_NAMES},
    )


def save_report(report: EvaluationReport, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8", newline="")


def load_report(path: str | Path) -> EvaluationReport:
    return report_from_json(Path(path).read_text(encoding="utf-8"))


def compare(
    baseline: EvaluationReport, timetrail: EvaluationReport
) -> list[tuple[str, float | None, float | None]]:
    """(metric, baseline, timetrail) rows; refuses reports from different test sets."""
    if baseline.fingerprint != timetrail.fingerprint:
        raise ValueError(
            "cannot compare reports with different dataset fingerprints: "
            f"{baseline.fingerprint[:12]} vs {timetrail.fingerprint[:12]}"
        )
    return [(name, baseline.metric(name), timetrail.metric(name)) for name in METRIC_NAMES]


def comparison_to_text(rows: list[tuple[str, float | None, float | None]]) -> str:
    """The comparison rows as an aligned table, four decimals or "undefined"."""

    def cell(v: float | None) -> str:
        return "undefined" if v is None else f"{v:.4f}"

    width = max(len(n) for n, _, _ in rows)
    header = f"{'metric'.ljust(width)}  {'baseline':>10}  {'timetrail':>10}"
    lines = [header, "-" * len(header)]
    for name, b, t in rows:
        lines.append(f"{name.ljust(width)}  {cell(b):>10}  {cell(t):>10}")
    return "\n".join(lines) + "\n"
