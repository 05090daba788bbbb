"""The columnar parse, serialize, cleanse and split against row-object references.

The references below are the row-at-a-time implementations the columnar code
replaced, kept verbatim apart from names. Every comparison is exact: columns
against reference rows (amounts by their bits, so -0.0 and 0.0 differ),
serialized text, cleanse reports, split parts and error messages.
"""
from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timetrail.data as data
from timetrail.data import (
    BASE_COLUMNS,
    LABELS,
    TX_ID_PATTERN,
    TX_TYPES,
    ParseError,
    load_transactions,
    parse_transactions,
    serialize_transactions,
)
from timetrail.enrich import ATTRIBUTE_NAMES
from timetrail.pipeline import read_enriched_csv
from timetrail.preprocess import (
    COMPOSITE_KEY_FIELDS,
    MANDATORY_FIELDS,
    CleansePolicy,
    SplitFractions,
    amount_fences,
    cleanse,
    temporal_split,
)

HEADERS = (BASE_COLUMNS, BASE_COLUMNS + ("label",), BASE_COLUMNS + ("label", "scenario"))


# --- the row-object references ------------------------------------------------


@dataclass(frozen=True, slots=True)
class RefTx:
    tx_id: str
    timestamp: int
    user_id: str | None
    terminal_id: str | None
    amount: float | None
    tx_type: str | None
    label: str | None = None
    scenario: str | None = None

    def sort_key(self) -> tuple[int, str]:
        return (self.timestamp, self.tx_id)


def ref_dataset(rows) -> tuple[RefTx, ...]:
    return tuple(sorted(rows, key=RefTx.sort_key))


def ref_parse_timestamp(raw: str) -> int:
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return round(dt.timestamp())


def _row_error(line: int, field: str, detail: str) -> ParseError:
    return ParseError(f"line {line}, field '{field}': {detail}")


def ref_parse_row(values: list[str], columns: tuple[str, ...], line: int) -> RefTx:
    if len(values) != len(columns):
        raise ParseError(f"line {line}: expected {len(columns)} fields, got {len(values)}")
    rec = dict(zip(columns, (v.strip() for v in values)))

    tx_id = rec["tx_id"]
    if not tx_id:
        raise _row_error(line, "tx_id", "missing value")
    if not TX_ID_PATTERN.fullmatch(tx_id):
        raise _row_error(line, "tx_id", f"{tx_id!r} has characters outside [A-Za-z0-9_.-]")

    raw_ts = rec["timestamp"]
    if not raw_ts:
        raise _row_error(line, "timestamp", "missing value")
    try:
        ts = ref_parse_timestamp(raw_ts)
    except ValueError:
        raise _row_error(line, "timestamp", f"not epoch seconds or ISO-8601: {raw_ts!r}") from None
    if ts <= 0:
        raise _row_error(line, "timestamp", f"must be positive epoch seconds, got {ts}")
    for field in ("user_id", "terminal_id"):
        if "\r" in rec[field] or "\n" in rec[field]:
            raise _row_error(line, field, f"{rec[field]!r} holds a CR or LF")

    amount: float | None = None
    if rec["amount"]:
        try:
            amount = float(rec["amount"])
        except ValueError:
            raise _row_error(line, "amount", f"not a number: {rec['amount']!r}") from None
        if not math.isfinite(amount):
            raise _row_error(line, "amount", "must be finite")
        if amount < 0:
            raise _row_error(line, "amount", f"must be non-negative, got {amount}")

    tx_type = rec["tx_type"] or None
    if tx_type is not None and tx_type not in TX_TYPES:
        raise _row_error(line, "tx_type", f"unknown type {tx_type!r}; expected one of {TX_TYPES}")

    label = rec.get("label") or None
    if label is not None and label not in LABELS:
        raise _row_error(line, "label", f"unknown label {label!r}; expected one of {LABELS}")
    scenario = rec.get("scenario", "")
    if "\r" in scenario or "\n" in scenario:
        raise _row_error(line, "scenario", f"{scenario!r} holds a CR or LF")

    return RefTx(
        tx_id=tx_id,
        timestamp=ts,
        user_id=rec["user_id"] or None,
        terminal_id=rec["terminal_id"] or None,
        amount=amount,
        tx_type=tx_type,
        label=label,
        scenario=scenario or None,
    )


def ref_parse(text: str) -> tuple[RefTx, ...]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
        columns = data._check_header(header, data.Dataset)
        rows = []
        for values in reader:
            if not values:
                continue
            rows.append(ref_parse_row(values, columns, reader.line_num))
    except StopIteration:
        raise ParseError("line 1: empty input, header row required") from None
    except csv.Error as e:  # the reader's own error, on the line it stopped at
        raise ParseError(f"line {reader.line_num}: {e}") from None
    return ref_dataset(rows)


def ref_serialize(txs: tuple[RefTx, ...]) -> str:
    with_scenario = any(t.scenario is not None for t in txs)
    columns = BASE_COLUMNS + (("label", "scenario") if with_scenario else ("label",))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for t in txs:
        row = [
            t.tx_id,
            str(t.timestamp),
            t.user_id or "",
            t.terminal_id or "",
            "" if t.amount is None else repr(t.amount),
            t.tx_type or "",
            t.label or "",
        ]
        if with_scenario:
            row.append(t.scenario or "")
        writer.writerow(row)
    return out.getvalue()


def ref_cleanse(txs: tuple[RefTx, ...], policy: CleansePolicy):
    def dup_key(t):
        if policy.dedupe_key == "tx_id":
            return t.tx_id
        return tuple(getattr(t, f) for f in COMPOSITE_KEY_FIELDS)

    seen: set = set()
    deduped = []
    duplicates = 0
    for t in txs:
        key = dup_key(t)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        deduped.append(t)

    complete = []
    missing = 0
    for t in deduped:
        if any(getattr(t, f) is None for f in MANDATORY_FIELDS):
            missing += 1
            continue
        complete.append(t)

    outliers = 0
    fence_low = fence_high = None
    kept = complete
    if policy.remove_outliers and complete:
        fence_low, fence_high = amount_fences([t.amount for t in complete], policy.iqr_k)
        kept = []
        for t in complete:
            if t.amount < fence_low or t.amount > fence_high:
                outliers += 1
            else:
                kept.append(t)

    out = ref_dataset(kept)
    report = {
        "rows_in": len(txs),
        "rows_out": len(out),
        "duplicates_dropped": duplicates,
        "missing_dropped": missing,
        "outliers_removed": outliers,
        "amount_fence_low": fence_low,
        "amount_fence_high": fence_high,
    }
    return out, report


def ref_split(rows: tuple[RefTx, ...], train_frac: float, val_frac: float):
    n = len(rows)

    def cut(frac: float, lo: int) -> int:
        c = int(n * frac)
        if c < lo:
            c = lo
        while 0 < c < n and rows[c].timestamp == rows[c - 1].timestamp:
            c += 1
        return c

    c1 = cut(train_frac, 0)
    c2 = cut(train_frac + val_frac, c1)
    if c1 == 0 or c2 == c1 or c2 == n:
        raise ValueError("dataset too small to populate train, val, and test at these fractions")
    return ref_dataset(rows[:c1]), ref_dataset(rows[c1:c2]), ref_dataset(rows[c2:])


# --- comparison helpers -----------------------------------------------------


def _bits(amount: float | None):
    return None if amount is None else struct.pack("<d", amount)


def ref_rows(txs) -> list[tuple]:
    return [
        (t.tx_id, t.timestamp, t.user_id, t.terminal_id, _bits(t.amount), t.tx_type, t.label,
         t.scenario)
        for t in txs
    ]


def new_rows(d) -> list[tuple]:
    """A Dataset's rows in the references' terms: None for "" and for NaN."""
    cols = [getattr(d, name).tolist() for name in BASE_COLUMNS + ("label", "scenario")]
    cols[4] = [None if a != a else a for a in cols[4]]
    for i in (2, 3, 5, 6, 7):
        cols[i] = [v or None for v in cols[i]]
    assert all(type(ts) is int for ts in cols[1])
    return [(*row[:4], _bits(row[4]), *row[5:]) for row in zip(*cols)]


@dataclass(frozen=True)
class Raised:
    kind: str
    message: str


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return Raised(type(e).__name__, str(e))


# --- generated CSV text -----------------------------------------------------

_tx_ids = st.sampled_from(["a", "b", "tx1", "tx_2", "x.y-z", " a ", "b\t"])
_bad_tx_ids = st.sampled_from(["", "a b", "../x", "é"])
# quoted in CSV; a CR or LF survives the strip only inside the text
_users = st.one_of(
    st.sampled_from(["", "u1"]),
    st.tuples(
        st.sampled_from(["", "\n", "\r\n", " \r"]),
        st.text(alphabet=st.sampled_from(list('ab," u1')), max_size=5),
        st.sampled_from(["", "\r", "\n "]),
    ).map("".join),
)
_line_breaks = st.sampled_from(["u\rx", "u\nx", "a\r\nb"])
_amounts = st.one_of(
    st.sampled_from(["", "-0.0", "0.0", "0", "1.5", "1e3", ".5", "+2.25", "1E-3", " 3.0 ", "7."]),
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False).map(repr),
)
_bad_amounts = st.sampled_from(["abc", "-2.5", "inf", "nan", "-inf", "1e999", "1..2"])
_bad_timestamps = st.sampled_from(["junk", "-5", "0", "1969-12-31T00:00:00Z", "2023-13-01"])


@st.composite
def _timestamps(draw):
    epoch = 1_672_531_200 + 3600 * draw(st.integers(0, 5))  # few values, so keys collide
    form = draw(st.sampled_from(["epoch", "iso_z", "iso_offset", "iso_naive", "padded", "zeros"]))
    dt = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return {
        "epoch": str(epoch),
        "iso_z": dt.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "iso_offset": dt.isoformat(),
        "iso_naive": dt.strftime("%Y-%m-%d %H:%M:%S"),
        "padded": f" {epoch} ",
        "zeros": f"{epoch:020d}",
    }[form]


@st.composite
def csv_texts(draw, malformed: bool):
    columns = draw(st.sampled_from(HEADERS))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 9)) == 0:
            out.write("\n")  # a blank line
        row = [
            draw(_tx_ids),
            draw(_timestamps()),
            draw(_users),
            draw(st.sampled_from(["", "t1", "t2"])),
            draw(_amounts),
            draw(st.sampled_from(("",) + TX_TYPES)),
            draw(st.sampled_from(("",) + LABELS)),
            draw(st.sampled_from(["", "burst", "night_owl"])),
        ][: len(columns)]
        if malformed and draw(st.integers(0, 15)) == 0:
            i = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7][: len(columns)]))
            bad = {0: _bad_tx_ids, 1: _bad_timestamps, 4: _bad_amounts, 5: st.just("bribe"),
                   6: st.just("bribe")}.get(i, _line_breaks)
            row[i] = draw(bad)
        if malformed and draw(st.integers(0, 30)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["x"]
        writer.writerow(row)
    return out.getvalue()


def _assert_same_dataset(ref, new):
    assert new_rows(new) == ref_rows(ref)
    assert serialize_transactions(new) == ref_serialize(ref)


@settings(max_examples=300)
@given(csv_texts(malformed=False), st.sampled_from([1, 2, 3, 4096]))
def test_parse_cleanse_split_equal_the_row_references(text, chunk_rows):
    with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
        ref = outcome(ref_parse, text)
        d = outcome(parse_transactions, text)
        if isinstance(ref, Raised):  # csv.reader refused the text
            assert d == ref
            return
        _assert_same_dataset(ref, d)
        for key in ("tx_id", "composite"):
            for remove_outliers in (False, True):
                policy = CleansePolicy(dedupe_key=key, remove_outliers=remove_outliers)
                ref_clean, ref_report = ref_cleanse(ref, policy)
                clean, report = cleanse(d, policy)
                assert report == ref_report
                _assert_same_dataset(ref_clean, clean)
                for fracs in ((0.6, 0.2), (0.5, 0.25)):
                    want = outcome(ref_split, ref_clean, *fracs)
                    got = outcome(temporal_split, clean, SplitFractions(*fracs))
                    if isinstance(want, Raised):
                        assert got == want
                    else:
                        assert list(got) == ["train", "val", "test"]
                        for ref_part, part in zip(want, got.values()):
                            _assert_same_dataset(ref_part, part)


@settings(max_examples=300)
@given(csv_texts(malformed=True), st.sampled_from([1, 2, 3, 4096]))
def test_malformed_text_fails_as_the_reference_does(text, chunk_rows):
    with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
        want = outcome(ref_parse, text)
        got = outcome(parse_transactions, text)
    if isinstance(want, Raised):
        assert got == want
    else:
        assert new_rows(got) == ref_rows(want)


H = ",".join(BASE_COLUMNS)
HL = H + ",label"
MALFORMED = {
    "bad amount before a wrong field count": HL + "\na,100,u1,t1,abc,purchase,legit\nb,200,u1\n",
    "wrong field count before a bad amount": HL + "\na,100,u1\nb,200,u1,t1,abc,purchase,legit\n",
    "too many fields": H + "\na,100,u1,t1,1.0,purchase,extra\n",
    "missing tx_id": H + "\n,100,u1,t1,1.0,purchase\n",
    "bad tx_id": H + "\na b,100,u1,t1,1.0,purchase\n",
    "path tx_id": H + "\n../../x,100,u1,t1,1.0,purchase\n",
    "bad label": HL + "\na,100,u1,t1,1.0,purchase,sus\n",
    "bad tx_type": H + "\na,100,u1,t1,1.0,bribe\n",
    "missing timestamp": H + "\na,,u1,t1,1.0,purchase\n",
    "junk timestamp": H + "\na,junk,u1,t1,1.0,purchase\n",
    "negative timestamp": H + "\na,-5,u1,t1,1.0,purchase\n",
    "zero timestamp": H + "\na,0,u1,t1,1.0,purchase\n",
    "ISO before 1970": H + "\na,1969-07-20T20:17:40Z,u1,t1,1.0,purchase\n",
    "bad amount": H + "\na,100,u1,t1,abc,purchase\n",
    "negative amount": H + "\na,100,u1,t1,-2.5,purchase\n",
    "infinite amount": H + "\na,100,u1,t1,inf,purchase\n",
    "nan amount": H + "\na,100,u1,t1,nan,purchase\n",
    "overflowing amount": H + "\na,100,u1,t1,1e999,purchase\n",
    "bad timestamp and bad amount in one row": H + "\na,junk,u1,t1,abc,purchase\n",
    "bad tx_id and bad timestamp in one row": H + "\na b,junk,u1,t1,1.0,purchase\n",
    "bad tx_type and bad label in one row": HL + "\na,100,u1,t1,1.0,bribe,sus\n",
    "later bad field of an earlier row wins": HL
    + "\na,100,u1,t1,1.0,purchase,sus\nb b,100,u1,t1,1.0,purchase,legit\n",
    "after a multi-line quoted user and a blank line": H
    + '\na,100,"u1\n",t1,1.0,purchase\n\nb,100,u1,t1,-1.0,purchase\n',
    "LF inside a user": H + '\na,100,"u\n1",t1,1.0,purchase\n',
    "CR inside a terminal": H + '\na,100,u1,"t\r1",1.0,purchase\n',
    "CR inside a scenario": HL + ',scenario\na,100,u1,t1,1.0,purchase,fraud,"bu\rrst"\n',
    "CR in a user before a bad amount": H + '\na,100,"u\rx",t1,abc,purchase\n',
    "bad timestamp before a CR in a user": H + '\na,junk,"u\rx",t1,1.0,purchase\n',
    "CR in a user in a later chunk": H
    + '\na,100,u1,t1,1.0,purchase\nb,100,u1,t1,1.0,purchase\nc,100,"u\rx",t1,1.0,purchase\n',
    "bad header": "tx,when,who\na,1,b\n",
    "empty input": "",
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_corpus_raises_the_reference_message(name, chunk_rows):
    text = MALFORMED[name]
    with pytest.raises(ParseError) as want:
        ref_parse(text)
    with mock.patch.object(data, "CHUNK_ROWS", chunk_rows), pytest.raises(ParseError) as got:
        parse_transactions(text)
    assert str(got.value) == str(want.value)


# the corpus texts whose error names a base cell
CELL_ERRORS = sorted(n for n, text in MALFORMED.items() if ", field '" in outcome(ref_parse, text).message)


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("name", CELL_ERRORS)
def test_enriched_file_names_the_base_cell_the_transaction_grammar_names(tmp_path, name, chunk_rows):
    reader = csv.reader(io.StringIO(MALFORMED[name]))
    header = next(reader)
    label = [] if "label" in header else [""]
    tx_path, enriched_path = tmp_path / "tx.csv", tmp_path / "enriched.csv"
    # both files on the same lines: every field quoted, so a CR or LF stays in
    # its cell, and blank lines left out of both
    with open(tx_path, "w", newline="") as tx, open(enriched_path, "w", newline="") as enriched:
        tx_out = csv.writer(tx, lineterminator="\n", quoting=csv.QUOTE_ALL)
        enriched_out = csv.writer(enriched, lineterminator="\n", quoting=csv.QUOTE_ALL)
        tx_out.writerow(header)
        enriched_out.writerow(header[:6] + ["label"] + header[7:] + list(ATTRIBUTE_NAMES))
        for row in filter(None, reader):
            tx_out.writerow(row)
            enriched_out.writerow(row[:6] + label + row[6:] + ["1"] * 9)
    with mock.patch.object(data, "CHUNK_ROWS", chunk_rows):
        with pytest.raises(ParseError) as want:
            load_transactions(tx_path)
        with pytest.raises(ValueError) as got:
            read_enriched_csv(enriched_path)
    cell_error = str(want.value).removeprefix(f"{tx_path}: ")
    assert ", field '" in cell_error and str(want.value) == f"{tx_path}: {cell_error}"
    assert str(got.value) == f"{enriched_path}: {cell_error}"


def test_composite_key_equates_signed_zeros_and_missing_values():
    text = HL + "\n" + "\n".join([
        "a,100,u1,t1,-0.0,purchase,legit",
        "b,100,u1,t1,0.0,purchase,legit",  # a's key: -0.0 == 0.0
        "c,100,,t1,,purchase,legit",
        "d,100,,t1,,transfer,legit",  # c's key: missing user and amount match
    ]) + "\n"
    policy = CleansePolicy(dedupe_key="composite", remove_outliers=False)
    ref_clean, ref_report = ref_cleanse(ref_parse(text), policy)
    clean, report = cleanse(parse_transactions(text), policy)
    assert report == ref_report
    assert (report["duplicates_dropped"], report["missing_dropped"], report["rows_out"]) == (2, 1, 1)
    assert new_rows(clean) == ref_rows(ref_clean)


def test_bad_row_in_a_later_chunk_is_named_by_its_line():
    rows = [f"t{i},{100 + i},u1,t1,1.0,purchase" for i in range(10)]
    rows[7] = "t7,100,u1,t1,-1.0,purchase"
    text = H + "\n" + "\n".join(rows) + "\nshort,1\n"
    with pytest.raises(ParseError) as want:
        ref_parse(text)
    with mock.patch.object(data, "CHUNK_ROWS", 3), pytest.raises(ParseError) as got:
        parse_transactions(text)
    assert str(got.value) == str(want.value) == (
        "line 9, field 'amount': must be non-negative, got -1.0"
    )
