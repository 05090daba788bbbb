"""Acceptance suite: ten binding checks on the assembled system.

Each test is numbered; the terminal summary (see conftest) prints one
PASS/FAIL line per criterion. Oracles here are written from scratch so a
shared bug in the implementation cannot vouch for itself.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from oracles import attribute_prediction, pearson
from timetrail.correlate import _window_correlations, correlation_matrix
from timetrail.enrich import EnrichedTable
from timetrail.explain import attribution_matrix, ensemble_bias
from timetrail.features import FeatureTable
from timetrail.metrics import auc_roc, average_precision, evaluate
from timetrail.model import (
    GBTConfig,
    feature_major,
    logistic_loss_and_grad,
    sigmoid,
    train_gbt,
    undersample,
)
from timetrail.pipeline import config_from_dict, read_enriched_csv, run_all
from timetrail.simulate import ScenarioConfig, describe, generate


def desk_doc(out_dir, scenario_mix=None):
    doc = {
        "seed": 7,
        "out_dir": str(out_dir),
        "generator": {
            "n_users": 800,
            "n_terminals": 60,
            "target_rows": 50_000,
            "fraud_rate": 0.005,
            "period": [1672531200, 1688169600],
        },
        "cleanse": {"remove_outliers": False},
    }
    if scenario_mix is not None:
        doc["generator"]["scenario_mix"] = scenario_mix
    return doc


def metric_of(out_dir, which, name):
    doc = json.loads((out_dir / f"eval_{which}.json").read_text(encoding="utf-8"))
    return doc["metrics"][name]


# ---------------------------------------------------------------------------


def test_criterion_01_enriched_model_beats_baseline(tmp_path):
    """50k-row run: >= 0.15 F1 and >= 0.05 AUC over the baseline, under 2 min."""
    out = tmp_path / "desk"
    cfg = config_from_dict(desk_doc(out))
    t0 = time.monotonic()
    run_all(cfg)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"run-all took {elapsed:.1f}s"

    f1_base = metric_of(out, "baseline", "f1") or 0.0  # undefined counts as zero
    f1_rich = metric_of(out, "timetrail", "f1")
    auc_base = metric_of(out, "baseline", "auc_roc")
    auc_rich = metric_of(out, "timetrail", "auc_roc")
    assert f1_rich is not None and auc_rich is not None and auc_base is not None
    assert f1_rich - f1_base >= 0.15, f"F1 gap {f1_rich - f1_base:.4f}"
    assert auc_rich - auc_base >= 0.05, f"AUC gap {auc_rich - auc_base:.4f}"


def test_criterion_02_streaming_pearson_agrees_with_two_pass():
    """1000 randomized windows within 1e-9, plus exact scalar anchors."""

    def matrix_r(x, y):
        n = len(x)
        columns = {f.name: np.zeros(n) for f in dataclasses.fields(EnrichedTable)}
        columns.update(amount=np.array(x), hour_of_day=np.array(y))
        m = correlation_matrix(EnrichedTable(**columns), ("amount", "hour_of_day"))
        return m["values"][0][1]

    assert matrix_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert matrix_r([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == -1.0
    assert abs(matrix_r([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) - 0.8) < 1e-12

    rng = np.random.default_rng(2024)
    checked_defined = 0
    checked_undefined = 0
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        scale = 10.0 ** rng.integers(-3, 7)
        # offset/spread stays <= 1e4: beyond that, every one-pass scheme loses
        # more than 1e-9 to rounding and agreement claims become meaningless
        offset = scale * float(rng.choice([0.0, 1e3, 1e4]))
        x = (rng.normal(size=n) * scale + offset).tolist()
        y = (rng.normal(size=n) * scale + offset).tolist()
        kind = int(rng.integers(0, 10))
        if kind == 0:
            x = [offset] * n  # constant: correlation undefined
        elif kind == 1:
            y = [offset] * n
        elif kind == 2:
            y = list(x)
        two_pass = pearson(x, y)
        # one window that holds the whole series
        (streaming,) = _window_correlations(np.array(x), np.array(y), np.array([0]), np.array([n]))
        if two_pass is None or streaming is None:
            assert two_pass is None and streaming is None
            checked_undefined += 1
        else:
            assert abs(two_pass - streaming) <= 1e-9
            checked_defined += 1
    assert checked_defined >= 500
    assert checked_undefined >= 100


def test_criterion_03_metrics_match_brute_force():
    """Exact confusion ratios on small fixtures; AUC/AP vs naive oracles, 1e-12."""

    def confusion_ratios(labels, predictions):
        # 0/1 predictions as scores: at threshold 0.5 the flagged rows are the 1s
        ids = [f"t{i}" for i in range(len(labels))]
        report = evaluate(labels, predictions, 0.5, ids, "fixture")
        return [report.metric(m) for m in ("precision", "recall", "f1", "accuracy")]

    # tp 2, fp 1, tn 0, fn 1
    assert confusion_ratios([1, 1, 1, 0], [1, 1, 0, 1]) == [2 / 3, 2 / 3, 2 / 3, 1 / 2]
    assert confusion_ratios([0, 1, 0, 1, 1], [0, 1, 0, 1, 1]) == [1.0, 1.0, 1.0, 1.0]
    assert confusion_ratios([1, 0], [0, 0])[0] is None  # nothing flagged: no precision
    assert confusion_ratios([0, 0], [0, 1])[1] is None  # no fraud: no recall

    def oracle_auc(y, s):
        pos = [v for c, v in zip(y, s) if c == 1]
        neg = [v for c, v in zip(y, s) if c == 0]
        hits = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
        return hits / (len(pos) * len(neg))

    def oracle_ap(y, s):
        n_pos = sum(y)
        ap, prev = 0.0, 0.0
        for t in sorted(set(s), reverse=True):
            tp = sum(1 for c, v in zip(y, s) if c == 1 and v >= t)
            flagged = sum(1 for v in s if v >= t)
            recall = tp / n_pos
            ap += (recall - prev) * (tp / flagged)
            prev = recall
        return ap

    rng = np.random.default_rng(99)
    for _ in range(10):
        y = (rng.random(200) < 0.3).astype(np.int64)
        y[:2] = [0, 1]
        s = np.round(rng.random(200), 2)  # coarse scores force ties
        assert abs(auc_roc(y, s) - oracle_auc(y.tolist(), s.tolist())) <= 1e-12
        assert abs(average_precision(y, s) - oracle_ap(y.tolist(), s.tolist())) <= 1e-12


def test_criterion_04_attribution_completeness_at_scale():
    """1000 rows, 200 trees: bias + contributions reproduce every margin, 1e-9."""
    rng = np.random.default_rng(41)
    n, d = 1000, 12
    X = rng.normal(size=(n, d))
    logits = X[:, 0] - 0.7 * X[:, 3] + 0.4 * X[:, 7] * X[:, 2]
    y = (rng.random(n) < sigmoid(logits)).astype(np.int64)
    y[:2] = [0, 1]
    table = FeatureTable(
        feature_names=tuple(f"f{i}" for i in range(d)),
        rows=X,
        tx_ids=tuple(f"t{i}" for i in range(n)),
        labels=y,
    )
    model = train_gbt(table, GBTConfig())  # 200 trees, depth 4
    assert len(model.trees) == 200
    margins = model.margin(table)
    contrib, bias = attribution_matrix(model, table)
    gap = np.abs(bias + contrib.sum(axis=1) - margins)
    assert gap.max() <= 1e-9
    # spot-check the per-row walker against the vectorized matrix
    for i in range(0, n, 97):
        total = ensemble_bias(model) + sum(attribute_prediction(model, X[i]))
        assert abs(total - margins[i]) <= 1e-9


def test_criterion_05_tis_bounds_additivity_and_temporal_mix(tmp_path):
    """TIS in [0,1]; complement shares sum to 1; burst+new-account run >= 0.5
    aggregate over true-positive flagged rows."""
    out = tmp_path / "mix"
    cfg = config_from_dict(
        desk_doc(out, scenario_mix={"burst": 0.5, "new_account_abuse": 0.5})
    )
    run_all(cfg)

    report = json.loads((out / "tis_report.json").read_text(encoding="utf-8"))
    per_tx = {p["tx_id"]: p["tis"] for p in report["per_tx"]}
    assert per_tx
    assert all(0.0 <= v <= 1.0 for v in per_tx.values())

    # partition additivity, straight from the trained model's attributions
    from timetrail.features import enriched_feature_table
    from timetrail.model import load_model

    test_rows = read_enriched_csv(out / "enriched_test.csv")
    model = load_model(out / "model_timetrail.json")
    table = enriched_feature_table(test_rows)
    contrib, _ = attribution_matrix(model, table)
    temporal = [i for i, f in enumerate(model.feature_names) if f in set(report["temporal_feature_set"])]
    rest = [i for i in range(len(model.feature_names)) if i not in temporal]
    mass = np.abs(contrib)
    total = mass.sum(axis=1)
    live = total > 0.0
    shares = mass[:, temporal].sum(axis=1)[live] / total[live]
    complements = mass[:, rest].sum(axis=1)[live] / total[live]
    assert live.any()
    assert np.abs(shares + complements - 1.0).max() <= 1e-12

    # aggregate over rows that are both flagged and truly fraudulent
    fraud_ids = set(test_rows.tx_id[test_rows.label == "fraud"].tolist())
    tp_ids = [t for t in report["flagged_tx_ids"] if t in fraud_ids]
    assert tp_ids, "model flagged no true fraud in the pure-temporal mix"
    tp_mean = float(np.mean([per_tx[t] for t in tp_ids]))
    assert tp_mean >= 0.5, f"TIS over true positives {tp_mean:.4f}"


def test_criterion_06_logistic_gradient_check():
    """Analytic gradient vs central differences over 100 random instances."""
    rng = np.random.default_rng(1234)
    eps = 1e-6
    for _ in range(100):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0.0, 1.0))
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2)
        for j in range(d):
            step = np.zeros(d)
            step[j] = eps
            hi, _, _ = logistic_loss_and_grad(w + step, b, X, y, l2)
            lo, _, _ = logistic_loss_and_grad(w - step, b, X, y, l2)
            num = (hi - lo) / (2 * eps)
            assert abs(num - gw[j]) < 1e-5 * max(1.0, abs(num))
        hi, _, _ = logistic_loss_and_grad(w, b + eps, X, y, l2)
        lo, _, _ = logistic_loss_and_grad(w, b - eps, X, y, l2)
        num = (hi - lo) / (2 * eps)
        assert abs(num - gb) < 1e-5 * max(1.0, abs(num))


def test_criterion_07_boosting_monotone_loss_and_split_oracle():
    """Loss never rises across 200 rounds; first split equals exhaustive search."""
    rng = np.random.default_rng(77)
    X = np.vstack([rng.normal(-2.0, 1.0, (120, 3)), rng.normal(2.0, 1.0, (120, 3))])
    y = np.array([0] * 120 + [1] * 120, dtype=np.int64)
    table = FeatureTable(
        feature_names=("a", "b", "c"), rows=X, tx_ids=tuple(f"t{i}" for i in range(240)), labels=y
    )
    cfg = GBTConfig()  # 200 trees
    model = train_gbt(table, cfg)
    margin = np.full(len(table), model.base_score)
    y_f = y.astype(np.float64)

    def loss_of(m):
        p = np.clip(sigmoid(m), 1e-15, 1 - 1e-15)
        return float(-(y_f * np.log(p) + (1 - y_f) * np.log(1 - p)).mean())

    prev = loss_of(margin)
    columns = feature_major(X)
    for tree in model.trees:
        margin = margin + model.learning_rate * tree.leaf_values(columns)
        cur = loss_of(margin)
        assert cur <= prev + 1e-12
        prev = cur

    # exhaustive first-split search on small fixtures
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        n = int(r2.integers(6, 51))
        d = int(r2.integers(1, 4))
        Xs = np.round(r2.normal(size=(n, d)), 1)
        ys = r2.integers(0, 2, size=n).astype(np.int64)
        if ys.min() == ys.max():
            ys[0] = 1 - ys[0]
        small = FeatureTable(
            feature_names=tuple(f"f{i}" for i in range(d)),
            rows=Xs,
            tx_ids=tuple(f"t{i}" for i in range(n)),
            labels=ys,
        )
        stump_cfg = GBTConfig(n_trees=1, max_depth=1)
        tree = train_gbt(small, stump_cfg).trees[0]

        resid = ys - sigmoid(math.log(ys.sum() / (n - ys.sum())))
        total = resid.sum()
        best = None
        for f in range(d):
            for lo, hi in zip(*(lambda v: (v, v[1:]))(sorted(set(Xs[:, f])))):
                thr = (lo + hi) / 2.0
                mask = Xs[:, f] < thr
                nl, nr = int(mask.sum()), n - int(mask.sum())
                if nl < stump_cfg.min_child_weight or nr < stump_cfg.min_child_weight:
                    continue
                gl = resid[mask].sum()
                gr = total - gl
                gain = 0.5 * (
                    gl * gl / (nl + stump_cfg.l2)
                    + gr * gr / (nr + stump_cfg.l2)
                    - total * total / (n + stump_cfg.l2)
                )
                if gain > 0.0 and (best is None or gain > best[0] + 1e-12):
                    best = (gain, f, thr)
        if best is None:
            assert tree.children[0] == 0  # the root is a leaf
        else:
            assert (tree.feature[0], tree.threshold[0]) == (best[1], best[2])


def test_criterion_08_undersampling_exact_and_deterministic():
    """All minority rows kept, exactly ceil(ratio * minority) majority rows."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(1010, 2))
    y = np.array([1] * 10 + [0] * 1000, dtype=np.int64)
    ids = tuple(f"r{i}" for i in range(1010))
    table = FeatureTable(feature_names=("a", "b"), rows=X, labels=y, tx_ids=ids)

    out = undersample(table, majority_ratio=10.0, seed=3)
    assert int(out.labels.sum()) == 10
    assert len(out) == 10 + 100

    frac = undersample(table, majority_ratio=2.5, seed=3)
    assert len(frac) == 10 + math.ceil(2.5 * 10)

    again = undersample(table, majority_ratio=10.0, seed=3)
    assert out.tx_ids == again.tx_ids
    other = undersample(table, majority_ratio=10.0, seed=4)
    assert out.tx_ids != other.tx_ids


def small_doc(out_dir):
    return {
        "seed": 11,
        "out_dir": str(out_dir),
        "generator": {
            "n_users": 60,
            "n_terminals": 10,
            "target_rows": 3000,
            "fraud_rate": 0.01,
            "period": [1672531200, 1677628800],
        },
    }


# sha256 of manifest.json for small_doc, recorded with numpy 2.4.6 on CPython
# 3.11. A change to any artifact's bytes changes it; a refactor must not.
GOLDEN_MANIFEST_SHA256 = "c928a34f18682dca8696ea7d7b56cfcd43f8e1d5d7beb8586c1cf5316a8903fc"


def test_golden_manifest(tmp_path):
    """The 3,000-row run writes the same artifacts, byte for byte, as recorded."""
    run_all(config_from_dict(small_doc(tmp_path)))
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_MANIFEST_SHA256


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    """Same config, two run-alls: equal manifests, hash for hash."""
    run_all(config_from_dict(small_doc(tmp_path / "a")))
    run_all(config_from_dict(small_doc(tmp_path / "b")))
    blob_a = (tmp_path / "a" / "manifest.json").read_bytes()
    blob_b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert blob_a == blob_b
    entries_a = json.loads(blob_a)
    entries_b = json.loads(blob_b)
    assert [e["sha256"] for e in entries_a] == [e["sha256"] for e in entries_b]
    assert len(entries_a) > 20


def test_criterion_10_generator_counts_and_scale():
    """Exact fraud counts at both scales; the large run stays under 5 minutes."""
    small = generate(ScenarioConfig(target_rows=10_000, fraud_rate=0.0013, seed=0))
    assert describe(small)["fraud_count"] == 13
    assert len(small) == 10_000

    t0 = time.monotonic()
    big = generate(
        ScenarioConfig(
            n_users=20_000,
            n_terminals=600,
            target_rows=1_750_000,
            fraud_rate=0.001345,
            seed=0,
        )
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"generation took {elapsed:.1f}s"
    assert describe(big)["fraud_count"] == 2354
    assert len(big) == 1_750_000
