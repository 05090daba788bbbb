"""Metric tests anchored by worked examples and brute-force oracles.

The AUC oracle counts concordant pairs directly (half credit for score ties)
and the AP oracle sweeps every distinct score as a threshold, so both are
independent of the ranking implementations under test.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timetrail.data import rows_to_csv
from timetrail.metrics import (
    METRIC_NAMES,
    auc_roc,
    average_precision,
    compare,
    comparison_to_text,
    dataset_fingerprint,
    evaluate,
    load_report,
    report_from_json,
    report_to_json,
    save_report,
)


def oracle_auc(y, s):
    pos = [si for yi, si in zip(y, s) if yi == 1]
    neg = [si for yi, si in zip(y, s) if yi == 0]
    if not pos or not neg:
        return None
    credit = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            credit += 1.0
        elif p == n:
            credit += 0.5
    return credit / (len(pos) * len(neg))


def oracle_ap(y, s):
    n_pos = sum(y)
    if n_pos == 0:
        return None
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(s), reverse=True):
        preds = [1 if si >= t else 0 for si in s]
        tp = sum(1 for yi, pi in zip(y, preds) if yi == 1 and pi == 1)
        flagged = sum(preds)
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / flagged)
        prev_recall = recall
    return ap


def loop_auc(y, s):
    """Reference: average ranks assigned one tie run at a time."""
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    ranks = np.empty(y.size, dtype=np.float64)
    i = 0
    while i < y.size:
        j = i
        while j + 1 < y.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loop_ap(y, s):
    """Reference: the descending sweep one tie run at a time, summed as it goes."""
    n_pos = int(y.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-s, kind="mergesort")
    y_sorted = y[order]
    s_sorted = s[order]
    ap = 0.0
    tp = 0
    seen = 0
    prev_recall = 0.0
    i = 0
    while i < y.size:
        j = i
        while j + 1 < y.size and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        tp += int(y_sorted[i : j + 1].sum())
        seen += j - i + 1
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / seen)
        prev_recall = recall
        i = j + 1
    return ap


# ---------------------------------------------------------------------------
# confusion counts and derived ratios


def ratios(labels, predictions):
    """evaluate's confusion ratios, with the predictions as 0/1 scores at 0.5."""
    report = evaluate(labels, predictions, 0.5, [str(i) for i in range(len(labels))], "m")
    return {name: report.metric(name) for name in ("accuracy", "precision", "recall", "f1")}


def test_confusion_worked_example():
    # tp 2, fp 1, tn 0, fn 1
    assert ratios([1, 1, 1, 0], [1, 1, 0, 1]) == {
        "accuracy": 1 / 2,
        "precision": 2 / 3,
        "recall": 2 / 3,
        "f1": 2 / 3,
    }


def test_ratios_undefined_when_denominator_is_zero():
    nothing_flagged = ratios([0] * 5 + [1] * 2, [0] * 7)  # tp 0, fp 0, tn 5, fn 2
    assert nothing_flagged["precision"] is None
    assert nothing_flagged["f1"] is None
    no_positives = ratios([0] * 8, [1] * 3 + [0] * 5)  # tp 0, fp 3, tn 5, fn 0
    assert no_positives["recall"] is None
    assert no_positives["f1"] is None
    assert ratios([], [])["accuracy"] is None
    # defined precision and recall that are both zero still give no f1
    all_wrong = ratios([0, 0, 1, 1], [1, 1, 0, 0])  # tp 0, fp 2, tn 0, fn 2
    assert all_wrong["precision"] == all_wrong["recall"] == 0.0
    assert all_wrong["f1"] is None


def test_evaluate_label_validation():
    with pytest.raises(ValueError, match="only 0 and 1"):
        ratios([0, 2], [0, 1])
    with pytest.raises(ValueError, match="lengths differ"):
        evaluate([0, 1], [0], 0.5, ("a", "b"), "m")
    with pytest.raises(ValueError, match="one-dimensional"):
        evaluate(np.zeros((2, 2)), np.zeros((2, 2)), 0.5, ("a", "b"), "m")


# ---------------------------------------------------------------------------
# ranking metrics


def test_auc_worked_example():
    # one discordant pair out of four
    assert auc_roc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    assert auc_roc([0, 1], [0.2, 0.9]) == 1.0
    assert auc_roc([0, 1], [0.9, 0.2]) == 0.0


def test_auc_all_tied_is_half():
    assert auc_roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)


def test_auc_single_class_is_none():
    assert auc_roc([1, 1], [0.1, 0.2]) is None
    assert auc_roc([0, 0], [0.1, 0.2]) is None


def test_ap_worked_example():
    # the positive sits at rank 2 of 2
    assert average_precision([1, 0], [0.2, 0.9]) == pytest.approx(0.5)
    assert average_precision([1, 0], [0.9, 0.2]) == 1.0


def test_ap_no_positives_is_none():
    assert average_precision([0, 0], [0.1, 0.9]) is None


@pytest.mark.parametrize("seed", range(8))
def test_ranking_metrics_match_oracles_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = 200
    y = (rng.random(n) < 0.3).astype(np.int64)
    y[:2] = [0, 1]
    s = np.round(rng.random(n), 2)  # two decimals force heavy ties
    assert auc_roc(y, s) == pytest.approx(oracle_auc(y.tolist(), s.tolist()), abs=1e-12)
    assert average_precision(y, s) == pytest.approx(oracle_ap(y.tolist(), s.tolist()), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.floats(-2.0, 2.0, allow_nan=False)),
        min_size=1,
        max_size=120,
    ),
    st.integers(0, 3),
)
def test_ranking_metrics_equal_the_tie_run_loops_bit_for_bit(pairs, decimals):
    y = np.array([p[0] for p in pairs], dtype=np.int64)
    s = np.round(np.array([p[1] for p in pairs]), decimals)  # rounding forces ties
    assert auc_roc(y, s) == loop_auc(y, s)
    assert average_precision(y, s) == loop_ap(y, s)


def test_score_validation():
    with pytest.raises(ValueError, match="finite"):
        auc_roc([0, 1], [0.1, float("nan")])
    with pytest.raises(ValueError, match="lengths differ"):
        average_precision([0, 1], [0.1])


# ---------------------------------------------------------------------------
# evaluation reports


def eval_pair():
    ids = ("a", "b", "c", "d")
    base = evaluate([0, 0, 1, 1], [0.4, 0.6, 0.3, 0.7], 0.5, ids, "baseline")
    rich = evaluate([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9], 0.5, ids, "timetrail", tis_aggregate=0.9)
    return base, rich


def test_evaluate_fills_every_metric():
    base, rich = eval_pair()
    assert base.row_count == 4
    assert base.metric("tis") is None
    assert rich.metric("tis") == 0.9
    assert rich.metric("accuracy") == 1.0
    assert rich.metric("f1") == 1.0
    assert rich.metric("auc_roc") == 1.0
    assert base.fingerprint == rich.fingerprint == dataset_fingerprint(("a", "b", "c", "d"))


def test_evaluate_threshold_is_inclusive():
    report = evaluate([1, 0], [0.5, 0.49], 0.5, ("x", "y"), "m")
    assert report.metric("recall") == 1.0
    assert report.metric("precision") == 1.0


def test_evaluate_validation():
    with pytest.raises(ValueError, match="threshold"):
        evaluate([0, 1], [0.1, 0.9], 1.5, ("a", "b"), "m")
    with pytest.raises(ValueError, match="tx_ids"):
        evaluate([0, 1], [0.1, 0.9], 0.5, ("a",), "m")


def test_report_json_round_trip(tmp_path):
    _, rich = eval_pair()
    back = report_from_json(report_to_json(rich))
    assert back == rich
    path = tmp_path / "report.json"
    save_report(rich, path)
    assert load_report(path) == rich


def test_report_json_none_becomes_null():
    base, _ = eval_pair()
    report = evaluate([1, 1], [0.9, 0.8], 0.5, ("a", "b"), "m")
    doc = json.loads(report_to_json(report))
    assert doc["metrics"]["auc_roc"] is None
    assert report_from_json(report_to_json(report)).metric("auc_roc") is None
    assert base.metric("tis") is None


def test_report_json_missing_metric_is_rejected():
    _, rich = eval_pair()
    doc = json.loads(report_to_json(rich))
    del doc["metrics"]["recall"]
    with pytest.raises(ValueError, match="missing metric 'recall'"):
        report_from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="no 'metrics'"):
        report_from_json(json.dumps({"model": "m"}))


def test_metric_name_lookup():
    _, rich = eval_pair()
    with pytest.raises(ValueError, match="unknown metric"):
        rich.metric("lift")


# ---------------------------------------------------------------------------
# comparison rendering


def test_compare_requires_matching_fingerprints():
    _, rich = eval_pair()
    other = evaluate([0, 1], [0.1, 0.9], 0.5, ("p", "q"), "baseline")
    with pytest.raises(ValueError, match="different dataset fingerprints"):
        compare(other, rich)


def test_compare_renders_csv_and_text():
    base, rich = eval_pair()
    rows = compare(base, rich)
    assert [r[0] for r in rows] == list(METRIC_NAMES)
    assert rows[-1] == ("tis", None, 0.9)

    csv_text = rows_to_csv(("metric", "baseline", "timetrail"), rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "metric,baseline,timetrail"
    assert len(lines) == 1 + len(METRIC_NAMES)
    by_name = {ln.split(",")[0]: ln for ln in lines[1:]}
    assert by_name["tis"] == "tis,,0.9"  # undefined baseline cell is empty

    text = comparison_to_text(rows)
    assert "undefined" in text
    assert "0.9000" in text
    assert text.splitlines()[0].split() == ["metric", "baseline", "timetrail"]


def test_comparison_text_alignment():
    lines = comparison_to_text([("accuracy", 0.5, 0.75), ("f1", None, 1.0)]).splitlines()
    assert len({len(ln) for ln in lines if ln}) == 1  # every row padded to one width
