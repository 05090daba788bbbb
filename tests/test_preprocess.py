import json

import pytest

from conftest import transactions as _dataset
from timetrail.features import (
    FeatureTable,
    apply_scaler,
    fit_scaler,
    load_scaler,
    save_scaler,
)
from timetrail.preprocess import (
    CleansePolicy,
    SplitFractions,
    amount_fences,
    cleanse,
    temporal_split,
)

import numpy as np


def _tx(i, ts, user="u1", terminal="t1", amount=10.0, tx_type="purchase", label=None):
    return (f"tx{i:03d}", ts, user, terminal, amount, tx_type, label)


# --- cleanse ---------------------------------------------------------------


def test_iqr_fence_example():
    # quartiles by linear interpolation: Q1 = 10.25, Q3 = 11.75, IQR = 1.5
    amounts = [10.0, 11.0, 12.0, 10.0, 11.0, 1e6]
    low, high = amount_fences(amounts, 3.0)
    assert low == pytest.approx(5.75, abs=1e-12)
    assert high == pytest.approx(16.25, abs=1e-12)


def test_outlier_example_removes_only_extreme():
    rows = [_tx(i, 100 + i, amount=a) for i, a in enumerate([10, 11, 12, 10, 11, 1e6])]
    clean, report = cleanse(_dataset(rows), CleansePolicy())
    assert report["outliers_removed"] == 1
    assert report["rows_out"] == 5
    assert (clean.amount < 1e6).all()
    assert report["amount_fence_low"] == pytest.approx(5.75)
    assert report["amount_fence_high"] == pytest.approx(16.25)


def test_dedupe_keeps_first_occurrence():
    rows = [
        ("dup", 100, "u1", "t1", 1.0, "purchase"),
        ("dup", 200, "u2", "t2", 2.0, "transfer"),
        ("other", 150, "u3", "t1", 3.0, "purchase"),
    ]
    clean, report = cleanse(_dataset(rows), CleansePolicy(remove_outliers=False))
    assert report["duplicates_dropped"] == 1
    kept = dict(zip(clean.tx_id.tolist(), clean.timestamp.tolist()))
    assert kept["dup"] == 100  # earliest instance survives


def test_composite_dedupe_key():
    a = ("a", 100, "u1", "t1", 5.0, "purchase")
    b = ("b", 100, "u1", "t1", 5.0, "purchase")  # same composite key
    clean, report = cleanse(
        _dataset([a, b]), CleansePolicy(dedupe_key="composite", remove_outliers=False)
    )
    assert report["duplicates_dropped"] == 1
    assert len(clean) == 1


def test_missing_mandatory_dropped():
    rows = [
        _tx(0, 100),
        ("m1", 110, None, "t1", 1.0, "purchase"),
        ("m2", 120, "u1", "t1", None, "purchase"),
    ]
    clean, report = cleanse(_dataset(rows), CleansePolicy(remove_outliers=False))
    assert report["missing_dropped"] == 2
    assert len(clean) == 1


def test_counts_reconcile_exactly():
    rows = [
        _tx(0, 100, amount=10.0),
        _tx(1, 110, amount=10.5),
        _tx(2, 120, amount=11.0),
        _tx(3, 130, amount=9.5),
        _tx(4, 140, amount=1e9),
        ("tx001", 150, "u1", "t1", 10.0, "purchase"),  # dup id
        ("miss", 160, None, "t1", 10.0, "purchase"),
    ]
    clean, r = cleanse(_dataset(rows), CleansePolicy())
    assert r["rows_in"] == len(rows)
    assert r["rows_in"] == (
        r["rows_out"] + r["duplicates_dropped"] + r["missing_dropped"] + r["outliers_removed"]
    )
    assert r["rows_out"] == len(clean)


def test_no_outlier_pass_when_disabled():
    rows = [_tx(0, 100, amount=1.0), _tx(1, 110, amount=1e12)]
    _, report = cleanse(_dataset(rows), CleansePolicy(remove_outliers=False))
    assert report["outliers_removed"] == 0
    assert report["amount_fence_low"] is None and report["amount_fence_high"] is None


def test_report_is_the_json_document():
    _, report = cleanse(_dataset([_tx(0, 100)]), CleansePolicy())
    assert json.loads(json.dumps(report)) == report == {
        "rows_in": 1,
        "rows_out": 1,
        "duplicates_dropped": 0,
        "missing_dropped": 0,
        "outliers_removed": 0,
        "amount_fence_low": 10.0,
        "amount_fence_high": 10.0,
    }


def test_bad_policy_rejected():
    with pytest.raises(ValueError):
        cleanse(_dataset([_tx(0, 100)]), CleansePolicy(dedupe_key="nope"))
    with pytest.raises(ValueError):
        cleanse(_dataset([_tx(0, 100)]), CleansePolicy(iqr_k=-1.0))


# --- temporal split ----------------------------------------------------------


def test_split_example_counts():
    rows = [_tx(i, i + 1) for i in range(10)]  # ts 1..10
    split = temporal_split(_dataset(rows), SplitFractions(0.6, 0.2))
    assert list(split) == ["train", "val", "test"]
    assert split["train"].timestamp.tolist() == [1, 2, 3, 4, 5, 6]
    assert split["val"].timestamp.tolist() == [7, 8]
    assert split["test"].timestamp.tolist() == [9, 10]


def test_split_is_chronological():
    rows = [_tx(i, 1000 + 7 * i) for i in range(50)]
    split = temporal_split(_dataset(rows), SplitFractions(0.6, 0.2))
    assert split["train"].timestamp.max() < split["val"].timestamp.min()
    assert split["val"].timestamp.max() < split["test"].timestamp.min()


def test_split_ties_do_not_straddle():
    # all rows share one timestamp: no boundary can separate them
    rows = [_tx(i, 500) for i in range(10)]
    with pytest.raises(ValueError) as err:
        temporal_split(_dataset(rows), SplitFractions(0.6, 0.2))
    assert "too small" in str(err.value)


def test_split_boundary_ties_go_earlier():
    ts = [1, 2, 3, 4, 5, 6, 6, 6, 9, 10, 11, 12]
    rows = [_tx(i, t) for i, t in enumerate(ts)]
    split = temporal_split(_dataset(rows), SplitFractions(0.5, 0.25))
    train_ts = split["train"].timestamp.tolist()
    assert train_ts.count(6) == 3  # the tie run stays in train


def test_split_conservation_property():
    rows = [_tx(i, 100 + 13 * i) for i in range(37)]
    split = temporal_split(_dataset(rows), SplitFractions(0.6, 0.2))
    ids = split["train"].tx_id.tolist() + split["val"].tx_id.tolist() + split["test"].tx_id.tolist()
    assert sorted(ids) == sorted(t[0] for t in rows)


def test_split_fractions_refuse_bad_fractions():
    with pytest.raises(ValueError, match="leave room for test"):
        SplitFractions(0.8, 0.3)
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        SplitFractions(0.0, 0.5)


# --- scaler ------------------------------------------------------------------


def _table(values, name="x"):
    ids = tuple(f"t{i}" for i in range(len(values)))
    return FeatureTable(feature_names=(name,), rows=np.array(values, dtype=float).reshape(-1, 1), tx_ids=ids)


def test_scaler_examples():
    params = fit_scaler(_table([0.0, 5.0, 10.0]))
    scaled = apply_scaler(params, _table([0.0, 5.0, 10.0]))
    assert scaled.rows[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_scaler_degenerate_column_maps_to_zero():
    params = fit_scaler(_table([7.0, 7.0, 7.0]))
    scaled = apply_scaler(params, _table([7.0, 9.0]))
    assert scaled.rows[:, 0].tolist() == [0.0, 0.0]


def test_scaler_clips_out_of_range():
    params = fit_scaler(_table([0.0, 10.0]))
    scaled = apply_scaler(params, _table([12.0, -3.0]))
    assert scaled.rows[:, 0].tolist() == [1.0, 0.0]


def test_scaler_feature_mismatch_rejected():
    params = fit_scaler(_table([0.0, 1.0], name="a"))
    with pytest.raises(ValueError):
        apply_scaler(params, _table([0.5], name="b"))


def test_scaler_json_round_trip(tmp_path):
    params = fit_scaler(_table([0.0, 5.0, 10.0]))
    save_scaler(params, tmp_path / "scaler.json")
    again = load_scaler(tmp_path / "scaler.json")
    assert again == params
