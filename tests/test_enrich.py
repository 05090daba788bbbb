"""Temporal attribute tests, anchored by independent brute-force oracles."""
import random
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timetrail.data import Dataset, Transaction, parse_timestamp
from timetrail.enrich import (
    ATTRIBUTE_NAMES,
    DAY,
    EnrichConfig,
    enrich,
)
from timetrail.features import enriched_feature_table
from timetrail.pipeline import read_enriched_csv, write_enriched_csv

HOUR = 3600
CAP = 30 * DAY


def _tx(i, ts, user="u1", terminal="t1", amount=10.0):
    return Transaction(f"tx{i:04d}", ts, user, terminal, amount, "purchase")


def _enrich_rows(rows, cfg=None):
    return enrich(Dataset.from_rows(rows), cfg)


def _rows(d):
    """The dataset's rows as records, read from its columns ("" where unset)."""
    names = [f.name for f in fields(Transaction)]
    return [Transaction(*row) for row in zip(*(getattr(d, n).tolist() for n in names))]


# --- brute-force oracles -----------------------------------------------------


def oracle_window_count(rows, i, window, key):
    """Same-group rows with timestamp in (t_i - window, t_i]."""
    me = rows[i]
    return sum(
        1
        for t in rows
        if key(t) == key(me) and me.timestamp - window < t.timestamp <= me.timestamp
    )


def oracle_recency(rows, i, cap):
    me = rows[i]
    same = [t for t in rows if t.user_id == me.user_id and t is not me]
    if any(t.timestamp == me.timestamp for t in same):
        return 0
    earlier = [t.timestamp for t in same if t.timestamp < me.timestamp]
    if not earlier:
        return cap
    return min(me.timestamp - max(earlier), cap)


def oracle_amount_ratio(rows, i, window=30 * DAY):
    me = rows[i]
    prior = [
        t.amount
        for t in rows
        if t.user_id == me.user_id
        and me.timestamp - window < t.timestamp < me.timestamp
    ]
    if not prior:
        return 1.0
    mean = sum(prior) / len(prior)
    if mean <= 0:
        return 1.0
    return max(1e-9, me.amount / mean)


# --- worked examples ---------------------------------------------------------


def test_recency_example():
    rows = [_tx(0, 100), _tx(1, 160)]
    out = _enrich_rows(rows)
    assert out.seconds_since_last_user_tx[0] == CAP  # first tx sentinel
    assert out.seconds_since_last_user_tx[1] == 60


def test_recency_saturates_at_cap():
    rows = [_tx(0, 100), _tx(1, 100 + CAP + 999)]
    out = _enrich_rows(rows)
    assert out.seconds_since_last_user_tx[1] == CAP


def test_recency_tie_is_zero():
    rows = [_tx(0, 500), _tx(1, 500)]
    out = _enrich_rows(rows)
    assert out.seconds_since_last_user_tx[0] == 0
    assert out.seconds_since_last_user_tx[1] == 0


def test_48h_count_example():
    # transactions at hours 0, 10, 50: at t=50h the (2h, 50h] window holds 10h and 50h
    rows = [_tx(i, h * HOUR) for i, h in enumerate([0, 10, 50])]
    rows = [
        Transaction(t.tx_id, t.timestamp + 1, t.user_id, t.terminal_id, t.amount, t.tx_type)
        for t in rows
    ]  # keep timestamps positive at hour 0
    out = _enrich_rows(rows)
    assert out.user_tx_count_48h[2] == 2
    assert out.user_tx_count_48h[1] == 2
    assert out.user_tx_count_48h[0] == 1


def test_calendar_attributes():
    ts = parse_timestamp("2023-01-02T03:00:00Z")  # Monday, 3am
    out = _enrich_rows([_tx(0, ts)])
    assert out.hour_of_day[0] == 3
    assert out.day_of_week[0] == 0
    assert out.is_night[0] == 1


def test_night_boundary():
    base = parse_timestamp("2023-01-02T00:00:00Z")
    out = _enrich_rows([_tx(0, base + 5 * HOUR), _tx(1, base + 6 * HOUR + 7200)])
    assert out.is_night[0] == 1
    assert out.is_night[1] == 0


def test_amount_ratio_first_tx_neutral():
    out = _enrich_rows([_tx(0, 100, amount=50.0)])
    assert out.amount_over_user_mean_30d[0] == 1.0


def test_amount_ratio_example():
    rows = [_tx(0, 100, amount=10.0), _tx(1, 200, amount=20.0), _tx(2, 300, amount=30.0)]
    out = _enrich_rows(rows)
    assert out.amount_over_user_mean_30d[1] == pytest.approx(2.0)
    assert out.amount_over_user_mean_30d[2] == pytest.approx(2.0)  # 30 / mean(10,20)


def test_amount_ratio_ties_use_own_amount():
    rows = [
        _tx(0, 100, amount=10.0),
        _tx(1, 200, amount=5.0),
        _tx(2, 200, amount=40.0),  # same timestamp, different amount
    ]
    out = _enrich_rows(rows)
    assert out.amount_over_user_mean_30d[1] == pytest.approx(0.5)
    assert out.amount_over_user_mean_30d[2] == pytest.approx(4.0)


def test_amount_ratio_zero_history_mean_neutral():
    rows = [_tx(0, 100, amount=0.0), _tx(1, 200, amount=9.0)]
    out = _enrich_rows(rows)
    assert out.amount_over_user_mean_30d[1] == 1.0


def test_terminal_count_groups_by_terminal():
    rows = [
        _tx(0, 100, user="u1", terminal="tA"),
        _tx(1, 200, user="u2", terminal="tA"),
        _tx(2, 300, user="u3", terminal="tB"),
    ]
    out = _enrich_rows(rows)
    assert out.terminal_tx_count_48h[1] == 2
    assert out.terminal_tx_count_48h[2] == 1


def test_enrich_requires_complete_rows():
    bad = Transaction("x", 100, None, "t1", 1.0, "purchase")
    with pytest.raises(ValueError) as err:
        enrich(Dataset.from_rows([bad]))
    assert "cleanse" in str(err.value)


def test_enrich_rejects_timestamps_too_far_apart_to_key():
    rows = [_tx(0, 1, user="u1"), _tx(1, 2**62, user="u2")]
    with pytest.raises(ValueError, match="too wide"):
        enrich(Dataset.from_rows(rows))


def test_custom_recency_cap():
    rows = [_tx(0, 100), _tx(1, 100 + 5000)]
    out = _enrich_rows(rows, EnrichConfig(recency_cap_seconds=1000))
    assert out.seconds_since_last_user_tx[0] == 1000
    assert out.seconds_since_last_user_tx[1] == 1000


@pytest.mark.parametrize("labeled", [False, True])
def test_enriched_csv_round_trip_is_exact(tmp_path, labeled):
    rows = []
    for i in range(12):
        fraud = i % 4 == 0
        label = ("fraud" if fraud else "legit") if labeled else None
        scenario = "burst" if labeled and fraud else None
        rows.append(
            Transaction(f"tx{i:04d}", 1_000_000 + 977 * i, f"u{i % 3}", f"t{i % 2}",
                        0.1 * i + 1 / 3, "purchase", label, scenario)
        )
    table = enrich(Dataset.from_rows(rows))
    path = tmp_path / "enriched.csv"
    write_enriched_csv(path, table)
    back = read_enriched_csv(path)
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert ("scenario" in header) == labeled  # the column appears only when tagged
    for f in fields(table):
        assert getattr(back, f.name).tolist() == getattr(table, f.name).tolist(), f.name
    labels = enriched_feature_table(back).labels
    assert (labels is not None) == labeled
    assert back.user_id[0] is back.user_id[3]  # repeated strings are shared


def _quoted_user(line):
    fields_ = line.split(",")
    fields_[2] = '"u\nx"'  # one row on two lines
    return ",".join(fields_)


def _cell(k, text):
    def edit(line):
        fields_ = line.split(",")
        fields_[k] = text
        return ",".join(fields_)

    return edit


@pytest.mark.parametrize(
    "edits, problem",
    [
        ({4: lambda line: line + ",9"}, "line 5: expected 16 fields, got 17"),
        ({4: lambda line: line.rsplit(",", 1)[0]}, "line 5: expected 16 fields, got 15"),
        ({4: lambda line: ""}, "line 5: expected 16 fields, got 0"),
        ({4: lambda line: "../x" + line[6:]}, "line 5: tx_id '../x' has characters outside"),
        ({4: lambda line: line[6:]}, "line 5: tx_id '' has characters outside"),
        ({2: _quoted_user, 4: lambda line: "a b" + line[6:]}, "line 6: tx_id 'a b' has characters outside"),
        ({4: _cell(1, "12x")}, "line 5, field 'timestamp': not an integer: '12x'"),
        ({4: _cell(1, "1_700_000_000")}, "line 5, field 'timestamp': not an integer: '1_700_000_000'"),
        ({4: _cell(1, "")}, "line 5, field 'timestamp': not an integer: ''"),
        ({4: _cell(1, "9" * 19)}, "line 5, field 'timestamp': out of the int64 range: '9999999999999999999'"),
        ({4: _cell(4, "nan")}, "line 5, field 'amount': must be finite, got 'nan'"),
        ({4: _cell(4, "1e999")}, "line 5, field 'amount': must be finite, got '1e999'"),
        ({4: _cell(4, "1.5x")}, "line 5, field 'amount': not a number: '1.5x'"),
        ({4: _cell(11, "\u0663")}, "line 5, field 'user_tx_count_24h': not an integer: '\u0663'"),
        ({4: _cell(15, "inf")}, "line 5, field 'amount_over_user_mean_30d': must be finite, got 'inf'"),
        ({3: _cell(9, "x"), 4: _cell(1, "x")}, "line 4, field 'is_night': not an integer: 'x'"),
    ],
)
def test_enriched_csv_rejects_bad_rows_by_line(tmp_path, edits, problem):
    path = tmp_path / "enriched.csv"
    write_enriched_csv(path, enrich(Dataset.from_rows([_tx(i, 1_000_000 + 977 * i) for i in range(12)])))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert len(lines[0].split(",")) == 16 and lines[4].startswith("tx0003,")
    for i, edit in edits.items():
        lines[i] = edit(lines[i])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
        read_enriched_csv(path)


# --- randomized fixtures vs oracles -----------------------------------------


def _random_rows(rng, n, n_users=4, n_terminals=3, span=10 * DAY):
    rows = []
    for i in range(n):
        rows.append(
            Transaction(
                f"tx{i:04d}",
                rng.randint(1_000_000, 1_000_000 + span),
                f"u{rng.randint(0, n_users - 1)}",
                f"t{rng.randint(0, n_terminals - 1)}",
                round(rng.uniform(0.0, 200.0), 2),
                "purchase",
            )
        )
    return rows


def test_all_window_attributes_match_oracles():
    rng = random.Random(42)
    for trial in range(8):
        rows = _random_rows(rng, 120)
        d = Dataset.from_rows(rows)
        out = enrich(d)
        sorted_rows = _rows(d)
        user = lambda t: t.user_id
        term = lambda t: t.terminal_id
        assert out.tx_id.tolist() == [t.tx_id for t in sorted_rows]
        for i in range(len(out)):
            assert out.user_tx_count_24h[i] == oracle_window_count(sorted_rows, i, DAY, user)
            assert out.user_tx_count_48h[i] == oracle_window_count(sorted_rows, i, 2 * DAY, user)
            assert out.user_tx_count_7d[i] == oracle_window_count(sorted_rows, i, 7 * DAY, user)
            assert out.terminal_tx_count_48h[i] == oracle_window_count(
                sorted_rows, i, 2 * DAY, term
            )
            assert out.seconds_since_last_user_tx[i] == oracle_recency(sorted_rows, i, CAP)
            assert out.amount_over_user_mean_30d[i] == pytest.approx(
                oracle_amount_ratio(sorted_rows, i), rel=1e-12
            )


def test_dense_tie_fixture_matches_oracles():
    rng = random.Random(7)
    rows = [
        Transaction(
            f"tx{i:04d}",
            1_000_000 + rng.randint(0, 5) * HOUR,  # heavy timestamp collisions
            f"u{rng.randint(0, 1)}",
            "t0",
            float(rng.randint(0, 30)),
            "purchase",
        )
        for i in range(60)
    ]
    d = Dataset.from_rows(rows)
    out = enrich(d)
    sorted_rows = _rows(d)
    for i in range(len(out)):
        assert out.user_tx_count_24h[i] == oracle_window_count(
            sorted_rows, i, DAY, lambda t: t.user_id
        )
        assert out.seconds_since_last_user_tx[i] == oracle_recency(sorted_rows, i, CAP)
        assert out.amount_over_user_mean_30d[i] == pytest.approx(
            oracle_amount_ratio(sorted_rows, i), rel=1e-12
        )


# --- structural properties ---------------------------------------------------


_times = st.lists(st.integers(1, 5 * DAY), min_size=1, max_size=40)


@given(_times, st.integers(0, 2))
@settings(max_examples=60)
def test_no_lookahead_property(timestamps, user_count):
    """Truncating the future never changes an existing row's attributes."""
    rows = [
        _tx(i, ts, user=f"u{i % (user_count + 1)}") for i, ts in enumerate(timestamps)
    ]
    d = Dataset.from_rows(rows)
    full = enrich(d)
    cut = len(d) // 2 + 1
    prefix = d[:cut]
    partial = enrich(prefix)
    # identical timestamps at the cut boundary may see rows beyond it
    boundary_ts = d.timestamp[cut - 1]
    keep = partial.timestamp != boundary_ts
    for name in ATTRIBUTE_NAMES:
        assert (full[:cut].column(name)[keep] == partial.column(name)[keep]).all()


@given(_times)
@settings(max_examples=60)
def test_input_order_invariance(timestamps):
    rows = [_tx(i, ts) for i, ts in enumerate(timestamps)]
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    a = enrich(Dataset.from_rows(rows))
    b = enrich(Dataset.from_rows(shuffled))
    assert a.tx_id.tolist() == b.tx_id.tolist()
    for name in ATTRIBUTE_NAMES:
        assert a.column(name).tolist() == b.column(name).tolist()


@given(_times)
@settings(max_examples=60)
def test_self_inclusion_and_monotone_windows(timestamps):
    rows = [_tx(i, ts) for i, ts in enumerate(timestamps)]
    a = enrich(Dataset.from_rows(rows))
    assert (a.user_tx_count_24h >= 1).all()  # a row always sees itself
    assert (a.user_tx_count_24h <= a.user_tx_count_48h).all()
    assert (a.user_tx_count_48h <= a.user_tx_count_7d).all()
    assert (a.seconds_since_last_user_tx >= 0).all()
    assert (a.amount_over_user_mean_30d > 0).all()
    assert ((0 <= a.hour_of_day) & (a.hour_of_day <= 23)).all()
    assert ((0 <= a.day_of_week) & (a.day_of_week <= 6)).all()
    assert np.isin(a.is_night, (0, 1)).all()


def test_attribute_name_list_matches_dataclass():
    rows = _enrich_rows([_tx(0, 100)])
    assert [f.name for f in fields(rows)][-len(ATTRIBUTE_NAMES):] == list(ATTRIBUTE_NAMES)
    for name in ATTRIBUTE_NAMES:
        assert rows.column(name).shape == (1,)
    assert rows.column("amount").tolist() == [10.0]
    with pytest.raises(ValueError, match="unknown attribute"):
        rows.column("tx_id")
