"""Temporal attribute tests, anchored by independent brute-force oracles."""
import random
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import records as _rows
from conftest import transactions
from timetrail.data import LABELS, TX_TYPES, parse_timestamp
from timetrail.enrich import ATTRIBUTE_NAMES, DAY, RECENCY_CAP_SECONDS, EnrichedTable, enrich
from timetrail.features import enriched_feature_table
from timetrail.pipeline import read_enriched_csv, write_enriched_csv

HOUR = 3600
CAP = 30 * DAY


def _tx(i, ts, user="u1", terminal="t1", amount=10.0):
    return (f"tx{i:04d}", ts, user, terminal, amount, "purchase")


def _enrich_rows(rows):
    return enrich(transactions(rows))


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
    assert out.seconds_since_last_user_tx[1] == CAP == RECENCY_CAP_SECONDS


def test_recency_tie_is_zero():
    rows = [_tx(0, 500), _tx(1, 500)]
    out = _enrich_rows(rows)
    assert out.seconds_since_last_user_tx[0] == 0
    assert out.seconds_since_last_user_tx[1] == 0


def test_48h_count_example():
    # transactions at hours 0, 10, 50: at t=50h the (2h, 50h] window holds 10h and 50h
    rows = [_tx(i, h * HOUR + 1) for i, h in enumerate([0, 10, 50])]  # positive at hour 0
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
    with pytest.raises(ValueError) as err:
        enrich(transactions([("x", 100, None, "t1", 1.0, "purchase")]))
    assert "cleanse" in str(err.value)


def test_enrich_rejects_timestamps_too_far_apart_to_key():
    rows = [_tx(0, 1, user="u1"), _tx(1, 2**62, user="u2")]
    with pytest.raises(ValueError, match="too wide"):
        _enrich_rows(rows)


@pytest.mark.parametrize("labeled", [False, True])
def test_enriched_csv_round_trip_is_exact(tmp_path, labeled):
    rows = []
    for i in range(12):
        fraud = i % 4 == 0
        label = ("fraud" if fraud else "legit") if labeled else None
        scenario = "burst" if labeled and fraud else None
        rows.append(
            (f"tx{i:04d}", 1_000_000 + 977 * i, f"u{i % 3}", f"t{i % 2}", 0.1 * i + 1 / 3, "purchase",
             label, scenario)
        )
    table = _enrich_rows(rows)
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


def _same_columns(got, want):
    """Every column of two tables equal, numbers by their bits."""
    assert type(got) is type(want)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes(), f.name


# text that csv must quote (a comma, a quote) and never strips
_names = st.text(alphabet='ab0,"', min_size=1, max_size=3)


@st.composite
def _enriched_tables(draw, tagged):
    """An EnrichedTable built from numpy columns, without the reader under
    test, in a shuffled row order; timestamps and tx_ids tie often. A tagged
    table has a scenario tag on its first row at least."""
    n = draw(st.integers(1, 30))
    column = lambda values, dtype=object: np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)
    scenario = column(st.sampled_from(("", "burst")))
    scenario[0] = "burst"
    table = EnrichedTable(
        tx_id=column(st.text(alphabet="ab_.-1", min_size=1, max_size=2)),
        timestamp=column(st.one_of(st.integers(1, 3), st.integers(1, 2**63 - 1)), np.int64),
        user_id=column(_names),
        terminal_id=column(_names),
        amount=column(st.floats(0, 1e12), np.float64),
        tx_type=column(st.sampled_from(TX_TYPES)),
        label=column(st.sampled_from(LABELS + ("",))),
        scenario=scenario if tagged else np.full(n, "", dtype=object),
        **{name: column(st.integers(-(2**63), 2**63 - 1), np.int64) for name in ATTRIBUTE_NAMES[:-1]},
        amount_over_user_mean_30d=column(st.floats(allow_nan=False, allow_infinity=False), np.float64),
    )
    return table[np.array(draw(st.permutations(range(n))))]


@pytest.mark.parametrize("tagged", [False, True])
@given(data=st.data())
def test_enriched_csv_reads_back_in_timestamp_then_tx_id_order(tmp_path_factory, tagged, data):
    table = data.draw(_enriched_tables(tagged))
    path = tmp_path_factory.mktemp("enriched") / "enriched.csv"
    write_enriched_csv(path, table)
    order = sorted(range(len(table)), key=lambda i: (table.timestamp[i], table.tx_id[i]))
    _same_columns(read_enriched_csv(path), table[np.array(order)])


def test_enriched_csv_skips_a_blank_line(tmp_path):
    path = tmp_path / "enriched.csv"
    table = _enrich_rows([_tx(i, 1_000_000 + 977 * i) for i in range(12)])
    write_enriched_csv(path, table)
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join(lines[:5] + [""] + lines[5:]), encoding="utf-8")
    _same_columns(read_enriched_csv(path), table)


def test_enriched_header_without_label_reads_as_unlabeled(tmp_path):
    path = tmp_path / "enriched.csv"
    write_enriched_csv(path, _enrich_rows([(*_tx(i, 1_000_000 + 977 * i), "legit") for i in range(3)]))
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows[0][6] == "label" and rows[1][6] == "legit"
    path.write_text("".join(",".join(row[:6] + row[7:]) + "\n" for row in rows), encoding="utf-8")
    back = read_enriched_csv(path)
    assert back.label.tolist() == [""] * 3
    assert enriched_feature_table(back).labels is None


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
        ({4: lambda line: "../x" + line[6:]}, "line 5, field 'tx_id': '../x' has characters outside [A-Za-z0-9_.-]"),
        ({4: lambda line: line[6:]}, "line 5, field 'tx_id': missing value"),
        ({2: _quoted_user, 4: lambda line: "a b" + line[6:]}, "line 4, field 'user_id': 'u\\nx' holds a CR or LF"),
        ({4: _cell(1, "12x")}, "line 5, field 'timestamp': not epoch seconds or ISO-8601: '12x'"),
        ({4: _cell(1, "1_700_000_000")},
         "line 5, field 'timestamp': not epoch seconds or ISO-8601: '1_700_000_000'"),
        ({4: _cell(1, "")}, "line 5, field 'timestamp': missing value"),
        ({4: _cell(1, "9" * 19)}, "line 5, field 'timestamp': out of the int64 range: '9999999999999999999'"),
        ({4: _cell(4, "nan")}, "line 5, field 'amount': must be finite"),
        ({4: _cell(4, "1e999")}, "line 5, field 'amount': must be finite"),
        ({4: _cell(4, "1.5x")}, "line 5, field 'amount': not a number: '1.5x'"),
        ({4: _cell(11, "\u0663")}, "line 5, field 'user_tx_count_24h': not an integer: '\u0663'"),
        ({4: _cell(15, "inf")}, "line 5, field 'amount_over_user_mean_30d': must be finite"),
        ({3: _cell(9, "x"), 4: _cell(1, "x")}, "line 4, field 'is_night': not an integer: 'x'"),
        # the transaction grammar's rules on base cells, in data's words
        ({4: _cell(6, "FRAUD")}, "line 5, field 'label': unknown label 'FRAUD'; expected one of ('legit', 'fraud')"),
        ({4: _cell(5, "buy")},
         "line 5, field 'tx_type': unknown type 'buy'; expected one of ('purchase', 'withdrawal', 'transfer', 'deposit')"),
        ({4: _cell(4, "-5.0")}, "line 5, field 'amount': must be non-negative, got -5.0"),
        ({4: _cell(1, "-3")}, "line 5, field 'timestamp': must be positive epoch seconds, got -3"),
        ({4: _cell(1, "0"), 5: _cell(4, "-1")}, "line 5, field 'timestamp': must be positive epoch seconds, got 0"),
        # rows that cleanse and enrich never write: a mandatory field missing,
        # or a CR or LF that csv.writer would not quote
        ({4: _cell(5, "")}, "line 5, field 'tx_type': missing value"),
        ({4: _cell(2, "")}, "line 5, field 'user_id': missing value"),
        ({4: _cell(3, "")}, "line 5, field 'terminal_id': missing value"),
        ({4: _cell(4, "")}, "line 5, field 'amount': missing value"),
        ({4: _cell(2, '"u\nx"')}, "line 6, field 'user_id': 'u\\nx' holds a CR or LF"),
        # a file read with newline="" ends a line at a lone CR too
        ({4: _cell(3, '"t\r1"')}, "line 6, field 'terminal_id': 't\\r1' holds a CR or LF"),
        ({4: _cell(12, "-" + "9" * 19)},
         "line 5, field 'user_tx_count_48h': out of the int64 range: '-9999999999999999999'"),
        ({4: _cell(2, "u" * 200_000)}, "line 5: field larger than field limit (131072)"),  # csv.reader's refusal
    ],
)
def test_enriched_csv_rejects_bad_rows_by_line(tmp_path, edits, problem):
    path = tmp_path / "enriched.csv"
    write_enriched_csv(path, _enrich_rows([_tx(i, 1_000_000 + 977 * i) for i in range(12)]))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert len(lines[0].split(",")) == 16 and lines[4].startswith("tx0003,")
    for i, edit in edits.items():
        lines[i] = edit(lines[i])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
        read_enriched_csv(path)


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda header: "", "line 1: empty input, header row required"),
        (lambda header: header.replace(",label,", ",scenario,"), "line 1: bad header"),
        (lambda header: header.replace(",label,", ",label,junk,"), "line 1: bad header"),
        (lambda header: header.rsplit(",", 1)[0], "line 1: bad header"),
        (lambda header: header + "," + "x" * 200_000, "line 1: field larger than field limit (131072)"),
    ],
)
def test_enriched_csv_rejects_a_header_enrich_never_writes(tmp_path, edit, problem):
    path = tmp_path / "enriched.csv"
    write_enriched_csv(path, _enrich_rows([_tx(i, 1_000_000 + 977 * i) for i in range(3)]))
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    header = edit(header)
    path.write_text(header and header + "\n" + rest, encoding="utf-8")  # no header, no file
    with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
        read_enriched_csv(path)


# --- randomized fixtures vs oracles -----------------------------------------


def _random_rows(rng, n, n_users=4, n_terminals=3, span=10 * DAY):
    rows = []
    for i in range(n):
        rows.append(
            (
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
        d = transactions(rows)
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
        (
            f"tx{i:04d}",
            1_000_000 + rng.randint(0, 5) * HOUR,  # heavy timestamp collisions
            f"u{rng.randint(0, 1)}",
            "t0",
            float(rng.randint(0, 30)),
            "purchase",
        )
        for i in range(60)
    ]
    d = transactions(rows)
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
    d = transactions(rows)
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
    a = _enrich_rows(rows)
    b = _enrich_rows(shuffled)
    assert a.tx_id.tolist() == b.tx_id.tolist()
    for name in ATTRIBUTE_NAMES:
        assert a.column(name).tolist() == b.column(name).tolist()


@given(_times)
@settings(max_examples=60)
def test_self_inclusion_and_monotone_windows(timestamps):
    rows = [_tx(i, ts) for i, ts in enumerate(timestamps)]
    a = _enrich_rows(rows)
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
