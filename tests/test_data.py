import pytest
from hypothesis import given
from hypothesis import strategies as st

from timetrail.data import (
    LABELS,
    TX_TYPES,
    Dataset,
    ParseError,
    Transaction,
    day_of_week,
    format_timestamp,
    hour_of_day,
    load_tx_ids,
    parse_timestamp,
    parse_transactions,
    serialize_transactions,
)

HEADER = "tx_id,timestamp,user_id,terminal_id,amount,tx_type"


def test_parse_epoch_and_iso_timestamps_agree():
    csv_text = (
        HEADER + "\n"
        "a,1672617600,u1,t1,10.0,purchase\n"
        "b,2023-01-02T00:00:00Z,u1,t1,10.0,purchase\n"
    )
    d = parse_transactions(csv_text)
    assert d.transactions[0].timestamp == d.transactions[1].timestamp == 1672617600


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
    assert format_timestamp(ts) == "2023-01-02T03:00:00Z"


def test_rows_sorted_by_timestamp_then_id():
    csv_text = (
        HEADER + "\n"
        "b,200,u1,t1,1.0,purchase\n"
        "c,100,u1,t1,1.0,purchase\n"
        "a,200,u1,t1,1.0,purchase\n"
    )
    d = parse_transactions(csv_text)
    assert [t.tx_id for t in d.transactions] == ["c", "a", "b"]


def test_meta_counts():
    csv_text = (
        HEADER + ",label\n"
        "a,100,u1,t1,1.0,purchase,fraud\n"
        "b,200,u1,t1,1.0,purchase,legit\n"
    )
    d = parse_transactions(csv_text)
    assert d.meta.row_count == 2
    assert d.meta.fraud_count == 1
    assert d.meta.fraud_rate == 0.5
    assert (d.meta.t_min, d.meta.t_max) == (100, 200)


def test_unlabeled_meta_rate_is_none():
    d = parse_transactions(HEADER + "\na,100,u1,t1,1.0,purchase\n")
    assert d.meta.fraud_rate is None


def test_missing_optional_fields_become_none():
    d = parse_transactions(HEADER + "\na,100,,,,\n")
    t = d.transactions[0]
    assert t.user_id is None and t.terminal_id is None
    assert t.amount is None and t.tx_type is None


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


def test_bad_label_rejected():
    with pytest.raises(ParseError) as err:
        parse_transactions(HEADER + ",label\na,100,u1,t1,1.0,purchase,sus\n")
    assert "field 'label'" in str(err.value)


def test_wrong_field_count_names_line():
    with pytest.raises(ParseError) as err:
        parse_transactions(HEADER + "\na,100,u1\n")
    assert "line 2" in str(err.value)


def test_bad_header_rejected():
    with pytest.raises(ParseError) as err:
        parse_transactions("tx,when,who\na,1,b\n")
    assert "line 1" in str(err.value)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_transactions("")


def test_load_tx_ids_reads_stripped_ids_in_file_order(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(HEADER + "\n b ,2,u1,t1,1.0,purchase\n\na,1,,,,\n", encoding="utf-8")
    assert load_tx_ids(path) == ["b", "a"]
    for text in ("", "tx,when,who\na,1,b\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="ids.csv: line 1"):
            load_tx_ids(path)


def test_serialize_emits_epoch_and_round_trips():
    csv_text = HEADER + ",label\na,2023-01-02T00:00:00Z,u1,t1,12.5,transfer,fraud\n"
    d = parse_transactions(csv_text)
    out = serialize_transactions(d)
    assert "1672617600" in out and "2023" not in out
    again = parse_transactions(out)
    assert again.transactions == d.transactions


def test_scenario_column_only_when_tagged():
    plain = Dataset.from_rows(
        [Transaction("a", 100, "u1", "t1", 1.0, "purchase", "legit")]
    )
    tagged = Dataset.from_rows(
        [Transaction("a", 100, "u1", "t1", 1.0, "purchase", "fraud", "burst")]
    )
    assert "scenario" not in serialize_transactions(plain).splitlines()[0]
    assert serialize_transactions(tagged).splitlines()[0].endswith("label,scenario")
    rt = parse_transactions(serialize_transactions(tagged))
    assert rt.transactions[0].scenario == "burst"


_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=8,
)


@st.composite
def _transactions(draw):
    n = draw(st.integers(1, 30))
    rows = []
    for i in range(n):
        rows.append(
            Transaction(
                tx_id=f"tx{i}_{draw(_ids)}",
                timestamp=draw(st.integers(1, 2_000_000_000)),
                user_id=draw(st.one_of(st.none(), _ids)),
                terminal_id=draw(st.one_of(st.none(), _ids)),
                amount=draw(
                    st.one_of(
                        st.none(),
                        st.floats(0, 1e12, allow_nan=False, allow_infinity=False),
                    )
                ),
                tx_type=draw(st.one_of(st.none(), st.sampled_from(TX_TYPES))),
                label=draw(st.one_of(st.none(), st.sampled_from(LABELS))),
                scenario=draw(st.one_of(st.none(), st.just("burst"))),
            )
        )
    return Dataset.from_rows(rows)


@given(_transactions())
def test_round_trip_property(d):
    assert parse_transactions(serialize_transactions(d)).transactions == d.transactions
