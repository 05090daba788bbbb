"""Transaction data model and CSV ingestion.

A Dataset holds transactions as numpy columns sorted by (timestamp, tx_id).
Timestamps are integer epoch seconds, UTC. Input CSV may carry either epoch
seconds or ISO-8601 UTC strings; output always uses epoch seconds.

Numbers are ASCII, read after surrounding whitespace is stripped: a timestamp
is [+-]?[0-9]+ epoch seconds within int64 or an ISO-8601 string (naive means
UTC), and positive; an amount is a decimal or exponent literal,
[+-]?(d+[.d*] | .d+)([eE][+-]?d+), finite and >= 0. The '_' separators and
non-ASCII digits that int() and float() also read are rejected.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

TX_TYPES = ("purchase", "withdrawal", "transfer", "deposit")
LABELS = ("legit", "fraud")

# Columns in serialization order. label is optional on input, scenario is an
# auxiliary tag produced by the synthetic generator.
BASE_COLUMNS = ("tx_id", "timestamp", "user_id", "terminal_id", "amount", "tx_type")
OPTIONAL_COLUMNS = ("label", "scenario")
STRING_COLUMNS = ("tx_id", "user_id", "terminal_id", "tx_type", "label", "scenario")

# tx_ids name artifact files (sequence_<tx_id>.json), so they stay path-safe.
TX_ID_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")
# rows converted to or from text at a time: a chunk's text stays in small
# allocations, and a whole table's Python values never coexist
CHUNK_ROWS = 1024
# the rules on values that read, which enriched files keep too: per field, a
# test giving a column's failing rows, and the detail naming the value
VALUE_RULES = {
    "timestamp": (lambda c: c <= 0, "must be positive epoch seconds, got {}"),
    "amount": (lambda c: c < 0, "must be non-negative, got {}"),
    "tx_type": (lambda c: ~np.isin(c, ("",) + TX_TYPES), f"unknown type {{!r}}; expected one of {TX_TYPES}"),
    "label": (lambda c: ~np.isin(c, ("",) + LABELS), f"unknown label {{!r}}; expected one of {LABELS}"),
}
_EPOCH = re.compile(r"[+-]?[0-9]+", re.ASCII)
_INT64 = np.iinfo(np.int64)


class ParseError(ValueError):
    """Malformed input row; message names the line number and field."""


@dataclass(frozen=True, slots=True)
class Transaction:
    """One literal row for Dataset.from_rows; None marks a missing value."""

    tx_id: str
    timestamp: int
    user_id: str | None
    terminal_id: str | None
    amount: float | None
    tx_type: str | None
    label: str | None = None
    scenario: str | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transactions as numpy columns, sorted by (timestamp, tx_id).

    The string columns are object arrays holding "" for a missing value;
    timestamp is int64 and amount float64 with NaN for a missing amount.
    """

    tx_id: np.ndarray
    timestamp: np.ndarray
    user_id: np.ndarray
    terminal_id: np.ndarray
    amount: np.ndarray
    tx_type: np.ndarray
    label: np.ndarray
    scenario: np.ndarray

    @staticmethod
    def from_rows(rows: Iterable[Transaction]) -> "Dataset":
        rows = list(rows)
        return Dataset(
            timestamp=np.array([t.timestamp for t in rows], dtype=np.int64),
            amount=np.array([np.nan if t.amount is None else t.amount for t in rows], dtype=float),
            **{
                name: np.array([getattr(t, name) or "" for t in rows], dtype=object)
                for name in STRING_COLUMNS
            },
        )._sorted()

    @classmethod
    def concat(cls, parts: Sequence["Dataset"]):
        """The parts' rows one after another, as a table of this type."""
        return cls(**{f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)})

    def _sorted(self) -> "Dataset":
        """The rows in (timestamp, tx_id) order; ties keep their order."""
        return self[np.lexsort((self.tx_id, self.timestamp))]

    def __len__(self) -> int:
        return len(self.tx_id)

    def __getitem__(self, rows):
        """The rows a slice or an index array picks, as the same type."""
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def parse_timestamp(raw: str) -> int:
    """Epoch seconds from an ASCII integer string or an ISO-8601 UTC string."""
    text = raw.strip()
    if _EPOCH.fullmatch(text):
        return int(text)
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    dt = datetime.fromisoformat(iso)  # raises ValueError on junk
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return round(dt.timestamp())


def hour_of_day(ts: int) -> int:
    return (ts % 86400) // 3600


def day_of_week(ts: int) -> int:
    # epoch day 0 (1970-01-01) was a Thursday; 0 = Monday
    return (ts // 86400 + 3) % 7


def _check_header(header: list[str]) -> tuple[str, ...]:
    cleaned = tuple(h.strip() for h in header)
    if cleaned not in (BASE_COLUMNS, BASE_COLUMNS + ("label",), BASE_COLUMNS + OPTIONAL_COLUMNS):
        raise ParseError(
            f"line 1: bad header {list(cleaned)}; expected {list(BASE_COLUMNS)} "
            "with optional trailing 'label' and 'scenario' columns"
        )
    return cleaned


def _amount(text: str) -> float | None:
    """float() of ASCII text without '_' (the amount grammar, inf and nan), else None."""
    try:
        return float(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


def _convert(rows: list[list], columns: tuple[str, ...], shared: dict):
    """CSV rows, each ending in its line number, as a Dataset in file order,
    converted and checked a column at a time; ParseError names the first bad
    row and its first bad field. `shared` keeps one copy of each string of
    the columns whose values repeat, all but tx_id."""
    *text, lines = zip(*rows) if rows else [()] * (len(columns) + 1)
    raw = {name: [""] * len(rows) for name in OPTIONAL_COLUMNS}
    raw.update(zip(columns, (list(map(str.strip, col)) for col in text)))
    # epoch seconds, else ISO-8601; missing and unreadable values read as 1
    ts_text = raw["timestamp"]
    ts_values = [int(s) if _EPOCH.fullmatch(s) else s for s in ts_text]
    ts_bad = np.zeros(len(ts_values), dtype=bool)
    for i in [i for i, v in enumerate(ts_values) if isinstance(v, str)]:
        try:
            ts_values[i] = parse_timestamp(ts_values[i]) if ts_values[i] else 1
        except ValueError:
            ts_values[i], ts_bad[i] = 1, True
    try:
        timestamp = np.array(ts_values, dtype=np.int64)
    except OverflowError:  # epoch text beyond int64: too large reads as 1, too small as 0
        ts_big = np.array([v > _INT64.max for v in ts_values], dtype=bool)
        timestamp = np.array(
            [1 if v > _INT64.max else 0 if v < _INT64.min else v for v in ts_values], dtype=np.int64
        )
    else:
        ts_big = np.zeros(len(ts_values), dtype=bool)
    amounts = list(map(_amount, raw["amount"]))
    readable = np.array([a is not None for a in amounts], dtype=bool)
    d = Dataset(
        tx_id=np.array(raw["tx_id"], dtype=object),
        timestamp=timestamp,
        amount=np.array(amounts, dtype=np.float64),  # None reads as NaN
        **{n: np.array(list(map(shared.setdefault, raw[n], raw[n])), dtype=object) for n in STRING_COLUMNS[1:]},
    )
    # no CR or LF: csv.writer leaves a lone CR unquoted, and the file would not read back
    breaks = {n: ["\r" in s or "\n" in s for s in raw[n]] for n in ("user_id", "terminal_id", "scenario")}
    given = np.array(raw["amount"], dtype=object) != ""

    def rule(name, values):
        test, detail = VALUE_RULES[name]
        return name, test(getattr(d, name)), detail, values

    # (field, failing rows, detail, the values it shows); a mask may be
    # wrong only at rows that an earlier check fails
    checks = (
        ("tx_id", d.tx_id == "", "missing value", raw["tx_id"]),
        ("tx_id", [TX_ID_PATTERN.fullmatch(s) is None for s in raw["tx_id"]],
         "{!r} has characters outside [A-Za-z0-9_.-]", raw["tx_id"]),
        ("timestamp", [not s for s in ts_text], "missing value", ts_text),
        ("timestamp", ts_bad, "not epoch seconds or ISO-8601: {!r}", ts_text),
        ("timestamp", ts_big, "out of the int64 range: {!r}", ts_text),
        rule("timestamp", ts_values),
        ("user_id", breaks["user_id"], "{!r} holds a CR or LF", raw["user_id"]),
        ("terminal_id", breaks["terminal_id"], "{!r} holds a CR or LF", raw["terminal_id"]),
        ("amount", given & ~readable, "not a number: {!r}", raw["amount"]),
        ("amount", readable & ~np.isfinite(d.amount), "must be finite", amounts),
        rule("amount", amounts),
        rule("tx_type", raw["tx_type"]),
        rule("label", raw["label"]),
        ("scenario", breaks["scenario"], "{!r} holds a CR or LF", raw["scenario"]),
    )
    failures = [(int(hits[0]), k) for k, c in enumerate(checks) if len(hits := np.flatnonzero(c[1]))]
    if failures:
        row, k = min(failures)
        field, _, detail, values = checks[k]
        raise ParseError(f"line {lines[row]}, field '{field}': {detail.format(values[row])}")
    return d


def parse_transactions(source: str | Iterable[str]) -> Dataset:
    """Parse CSV text (or an iterable of lines) into a sorted Dataset.

    Rows are preserved verbatim apart from type conversion; duplicate tx_ids
    and missing field values survive until cleanse. An error names the first
    bad row in file order.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty input, header row required") from None
    columns = _check_header(header)
    parts: list[Dataset] = []
    shared: dict[str, str] = {}
    rows: list[list] = []
    stop: Exception | None = None  # raised unless a row before it is bad
    try:
        for values in reader:
            if not values:
                continue  # blank line
            if len(values) != len(columns):
                stop = ParseError(
                    f"line {reader.line_num}: expected {len(columns)} fields, got {len(values)}"
                )
                break
            values.append(reader.line_num)
            rows.append(values)
            if len(rows) == CHUNK_ROWS:
                parts.append(_convert(rows, columns, shared))
                rows = []
    except csv.Error as e:
        stop = e
    parts.append(_convert(rows, columns, shared))
    if stop is not None:
        raise stop
    return Dataset.concat(parts)._sorted()


def load_transactions(path: str | Path) -> Dataset:
    with open(path, "r", newline="", encoding="utf-8") as f:
        return parse_transactions(f)


def transaction_columns(d: Dataset) -> tuple[str, ...]:
    """BASE_COLUMNS and label, then scenario if some row carries a scenario tag."""
    return BASE_COLUMNS + OPTIONAL_COLUMNS[: 2 if (d.scenario != "").any() else 1]


def _csv_text(column: np.ndarray) -> list[str]:
    if column.dtype == np.float64:  # NaN is a missing amount
        return [repr(a) if a == a else "" for a in column.tolist()]
    return column.tolist() if column.dtype == object else list(map(str, column.tolist()))


def columns_to_csv(table: Dataset, columns: Sequence[str]) -> str:
    """CSV text of the named columns, floats via repr and "" for NaN,
    converted and written CHUNK_ROWS rows at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for lo in range(0, len(table), CHUNK_ROWS):
        values = [_csv_text(getattr(table, name)[lo : lo + CHUNK_ROWS]) for name in columns]
        writer.writerows(zip(*values))
    return out.getvalue()


def serialize_transactions(d: Dataset) -> str:
    """CSV text for a dataset; inverse of parse_transactions.

    Timestamps are emitted as epoch seconds, amounts via repr. The scenario
    column appears only when some row carries a scenario tag.
    """
    return columns_to_csv(d, transaction_columns(d))


def save_transactions(d: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_transactions(d), encoding="utf-8")
