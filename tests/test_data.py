import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import transactions
from timetrail.data import (
    LABELS,
    TX_TYPES,
    Dataset,
    ParseError,
    day_of_week,
    hour_of_day,
    load_transactions,
    parse_timestamp,
    parse_transactions,
    serialize_transactions,
)
from timetrail.simulate import describe

HEADER = "tx_id,timestamp,user_id,terminal_id,amount,tx_type"


def assert_same_rows(a, b):
    """Equal columns, amounts compared by their bits (so NaN equals NaN)."""
    for f in fields(Dataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "amount":
            x, y = x.view(np.int64), y.view(np.int64)
        assert x.tolist() == y.tolist(), f.name


def test_parse_epoch_and_iso_timestamps_agree():
    csv_text = (
        HEADER + "\n"
        "a,1672617600,u1,t1,10.0,purchase\n"
        "b,2023-01-02T00:00:00Z,u1,t1,10.0,purchase\n"
    )
    d = parse_transactions(csv_text)
    assert d.timestamp.tolist() == [1672617600, 1672617600]


def test_parse_timestamp_forms():
    assert parse_timestamp("1672617600") == 1672617600
    assert parse_timestamp("2023-01-02T00:00:00Z") == 1672617600
    assert parse_timestamp("2023-01-02T00:00:00+00:00") == 1672617600
    assert parse_timestamp("2023-01-02 00:00:00") == 1672617600  # naive means UTC
    with pytest.raises(ValueError):
        parse_timestamp("not-a-time")


def test_calendar_helpers():
    ts = parse_timestamp("2023-01-02T03:00:00Z")  # a Monday
    assert hour_of_day(ts) == 3
    assert day_of_week(ts) == 0


def test_rows_sorted_by_timestamp_then_id():
    csv_text = (
        HEADER + "\n"
        "b,200,u1,t1,1.0,purchase\n"
        "c,100,u1,t1,1.0,purchase\n"
        "a,200,u1,t1,1.0,purchase\n"
    )
    d = parse_transactions(csv_text)
    assert d.tx_id.tolist() == ["c", "a", "b"]


def test_meta_counts():
    csv_text = (
        HEADER + ",label\n"
        "a,100,u1,t1,1.0,purchase,fraud\n"
        "b,200,u1,t1,1.0,purchase,legit\n"
    )
    doc = describe(parse_transactions(csv_text))
    assert (doc["rows"], doc["fraud_count"], doc["fraud_rate"]) == (2, 1, 0.5)


def test_unlabeled_meta_rate_is_none():
    doc = describe(parse_transactions(HEADER + "\na,100,u1,t1,1.0,purchase\n"))
    assert (doc["rows"], doc["fraud_count"], doc["fraud_rate"]) == (1, 0, None)


def test_missing_optional_fields_become_none():
    # a missing string reads as "" and a missing amount as NaN
    d = parse_transactions(HEADER + "\na,100,,,,\n")
    assert d.user_id[0] == "" and d.terminal_id[0] == ""
    assert np.isnan(d.amount[0]) and d.tx_type[0] == ""


@pytest.mark.parametrize(
    "row,field",
    [
        (",100,u1,t1,1.0,purchase", "tx_id"),
        # tx_ids name files (sequence_<tx_id>.json): only [A-Za-z0-9_.-] passes
        ("../../x,100,u1,t1,1.0,purchase", "tx_id"),
        ("a b,100,u1,t1,1.0,purchase", "tx_id"),
        ("a,,u1,t1,1.0,purchase", "timestamp"),
        ("a,junk,u1,t1,1.0,purchase", "timestamp"),
        ("a,-5,u1,t1,1.0,purchase", "timestamp"),
        ("a,100,u1,t1,abc,purchase", "amount"),
        ("a,100,u1,t1,-2.5,purchase", "amount"),
        ("a,100,u1,t1,inf,purchase", "amount"),
        ("a,100,u1,t1,1.0,bribe", "tx_type"),
    ],
)
def test_malformed_rows_name_line_and_field(row, field):
    with pytest.raises(ParseError) as err:
        parse_transactions(HEADER + "\n" + row + "\n")
    assert "line 2" in str(err.value)
    assert f"field '{field}'" in str(err.value)


@pytest.mark.parametrize(
    "row,field",
    [
        # int() and float() read digit-group underscores and non-ASCII digits
        ("a,100,u1,t1,1_0.5,purchase", "amount"),
        ("a,1_672_532_445,u1,t1,1.0,purchase", "timestamp"),
        ("a,\uff11\uff16\uff17\uff12\uff15\uff13\uff12\uff14\uff14\uff15,u1,t1,1.0,purchase", "timestamp"),
        ("a,100,u1,t1,\uff11.\uff15,purchase", "amount"),
    ],
)
def test_numbers_outside_the_ascii_grammar_are_rejected(row, field):
    with pytest.raises(ParseError) as err:
        parse_transactions(HEADER + "\n" + row + "\n")
    assert "line 2" in str(err.value)
    assert f"field '{field}'" in str(err.value)
    with pytest.raises(ValueError):
        parse_timestamp("1_672_532_445")


@pytest.mark.parametrize(
    "text,where",
    [
        # csv.writer leaves a lone CR unquoted, so such a value would not read back
        (HEADER + '\na,100,"u\rx",t1,1.0,purchase\n', "line 2, field 'user_id'"),
        (HEADER + '\na,100,"u\nx",t1,1.0,purchase\n', "line 3, field 'user_id'"),
        (HEADER + '\na,100,u1,"t\r\n1",1.0,purchase\n', "line 3, field 'terminal_id'"),
        (HEADER + ',label,scenario\na,100,u1,t1,1.0,purchase,fraud,"b\rurst"\n', "line 2, field 'scenario'"),
    ],
)
def test_line_breaks_inside_string_fields_are_rejected(text, where):
    with pytest.raises(ParseError, match=f"^{where}: .* holds a CR or LF$"):
        parse_transactions(text)


def test_epoch_digit_count_is_not_limited():
    rows = "a,0000000001672531200,u1,t1,1.0,purchase\nb,+00000000000000000000100,u1,t1,1.0,purchase\n"
    d = parse_transactions(HEADER + "\n" + rows)
    assert d.timestamp.tolist() == [100, 1672531200]
    assert parse_timestamp("0000000001672531200") == 1672531200


@pytest.mark.parametrize(
    "ts,detail",
    [
        ("9223372036854775808", "out of the int64 range: '9223372036854775808'"),
        ("-9223372036854775809", "must be positive epoch seconds, got -9223372036854775809"),
    ],
)
def test_epoch_beyond_int64_is_rejected(ts, detail):
    text = HEADER + f"\na,100,u1,t1,1.0,purchase\nb,{ts},u1,t1,1.0,purchase\n"
    with pytest.raises(ParseError) as err:
        parse_transactions(text)
    assert str(err.value) == f"line 3, field 'timestamp': {detail}"
    # the largest int64 value still reads
    d = parse_transactions(text.replace(ts, "9223372036854775807"))
    assert d.timestamp.tolist() == [100, 2**63 - 1]


def test_bad_label_rejected():
    with pytest.raises(ParseError) as err:
        parse_transactions(HEADER + ",label\na,100,u1,t1,1.0,purchase,sus\n")
    assert "field 'label'" in str(err.value)


def test_wrong_field_count_names_line():
    with pytest.raises(ParseError) as err:
        parse_transactions(HEADER + "\na,100,u1\n")
    assert "line 2" in str(err.value)


def test_field_over_the_csv_limit_names_its_line_unless_a_row_before_is_bad():
    big = "u" * 200_000
    text = HEADER + f"\na,100,u1,t1,1.0,purchase\nb,100,{big},t1,1.0,purchase\n"
    with pytest.raises(ParseError, match=r"^line 3: field larger than field limit \(131072\)$"):
        parse_transactions(text)
    with pytest.raises(ParseError, match=r"^line 2, field 'amount'"):
        parse_transactions(text.replace("1.0", "abc", 1))
    with pytest.raises(ParseError, match=r"^line 1: field larger than field limit"):
        parse_transactions(f"{HEADER},{big}\n")


def test_non_utf8_byte_names_its_line_and_file_offset_after_the_rows_before_it(tmp_path):
    # 1,000 CRLF rows, about 38 kB: row t900 lies past the text decoder's
    # first chunks, and the line count takes CRLF as one break, as csv does
    rows = [f"t{i},{100 + i},u1,k1,1.0,purchase" for i in range(1000)]
    data = "\r\n".join([HEADER, *rows]).encode("ascii").replace(b"t900,", b"t900\xff,")
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    offset = data.index(b"\xff")
    message = f"{path}: line 902: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_transactions(path)
    # a bad row that the reader reached before the byte is reported first
    path.write_bytes(data.replace(b"1.0", b"x", 1))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2, field 'amount'"):
        load_transactions(path)


def test_bad_header_rejected():
    with pytest.raises(ParseError) as err:
        parse_transactions("tx,when,who\na,1,b\n")
    assert "line 1" in str(err.value)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_transactions("")


def test_serialize_emits_epoch_and_round_trips():
    csv_text = HEADER + ",label\na,2023-01-02T00:00:00Z,u1,t1,12.5,transfer,fraud\n"
    d = parse_transactions(csv_text)
    out = serialize_transactions(d)
    assert "1672617600" in out and "2023" not in out
    assert_same_rows(parse_transactions(out), d)


def test_scenario_column_only_when_tagged():
    plain = transactions([("a", 100, "u1", "t1", 1.0, "purchase", "legit")])
    tagged = transactions([("a", 100, "u1", "t1", 1.0, "purchase", "fraud", "burst")])
    assert "scenario" not in serialize_transactions(plain).splitlines()[0]
    assert serialize_transactions(tagged).splitlines()[0].endswith("label,scenario")
    rt = parse_transactions(serialize_transactions(tagged))
    assert rt.scenario.tolist() == ["burst"]


_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=8,
)


@st.composite
def _transactions(draw):
    """Rows as numpy columns in (timestamp, tx_id) order, built without the
    reader under test; "" and NaN are missing values."""
    n = draw(st.integers(1, 30))
    column = lambda values, dtype=object: np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)
    text = lambda values: column(st.one_of(st.just(""), values))
    d = Dataset(
        tx_id=np.array([f"tx{i}_{v}" for i, v in enumerate(column(_ids))], dtype=object),
        timestamp=column(st.integers(1, 2_000_000_000), np.int64),
        user_id=text(_ids),
        terminal_id=text(_ids),
        amount=column(st.one_of(st.just(np.nan), st.floats(0, 1e12)), np.float64),
        tx_type=text(st.sampled_from(TX_TYPES)),
        label=text(st.sampled_from(LABELS)),
        scenario=text(st.just("burst")),
    )
    return d[np.lexsort((d.tx_id, d.timestamp))]


@given(_transactions())
def test_round_trip_property(d):
    assert_same_rows(parse_transactions(serialize_transactions(d)), d)
