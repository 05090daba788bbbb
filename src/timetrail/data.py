"""The transaction data model and CSV ingestion.

A Dataset holds transactions as numpy columns sorted by (timestamp, tx_id).
Timestamps are integer epoch seconds, UTC. Input CSV may carry either epoch
seconds or ISO-8601 UTC strings; output always uses epoch seconds.

Numbers are ASCII, read after surrounding whitespace is stripped: a timestamp
is [+-]?[0-9]+ epoch seconds within int64 or an ISO-8601 string (naive means
UTC), and positive; an amount is a decimal or exponent literal,
[+-]?(d+[.d*] | .d+)([eE][+-]?d+), finite and >= 0. The '_' separators and
non-ASCII digits that int() and float() also read are rejected.

This is the one module that knows the CSV format: parse_transactions reads
transaction and enriched files alike, and rows_to_csv writes every CSV file.
A table type names its number columns in NUMBERS; the others hold text.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

TX_TYPES = ("purchase", "withdrawal", "transfer", "deposit")
LABELS = ("legit", "fraud")

# Columns in serialization order. label is optional on input, scenario is an
# auxiliary tag produced by the synthetic generator.
BASE_COLUMNS = ("tx_id", "timestamp", "user_id", "terminal_id", "amount", "tx_type")
OPTIONAL_COLUMNS = ("label", "scenario")

# tx_ids name artifact files (sequence_<tx_id>.json), so they stay path-safe.
TX_ID_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")
# rows converted to or from text at a time: a chunk's text stays in small
# allocations, and a whole table's Python values never coexist
CHUNK_ROWS = 1024


def _outside(allowed: tuple[str, ...]):
    """A text rule's test: None when every value of the column is "" or in
    `allowed` (one set test of the whole chunk), else the rows outside."""
    ok = frozenset(("",) + allowed)
    return lambda c: None if ok.issuperset(c) else [v not in ok for v in c]


# the rules on values that read, in transaction and enriched files alike: per
# field, a test giving a column's failing rows (None or none when all pass),
# and the detail naming the value
VALUE_RULES = {
    "timestamp": (lambda c: c <= 0, "must be positive epoch seconds, got {}"),
    "amount": (lambda c: c < 0, "must be non-negative, got {}"),
    "tx_type": (_outside(TX_TYPES), f"unknown type {{!r}}; expected one of {TX_TYPES}"),
    "label": (_outside(LABELS), f"unknown label {{!r}}; expected one of {LABELS}"),
}
_EPOCH = re.compile(r"[+-]?[0-9]+", re.ASCII)
_INT64 = np.iinfo(np.int64)


class ParseError(ValueError):
    """Malformed input row; message names the line number and field."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transactions as numpy columns, sorted by (timestamp, tx_id).

    The string columns are object arrays holding "" for a missing value;
    timestamp is int64 and amount float64 with NaN for a missing amount.
    """

    # the number columns and their types; the others hold text
    NUMBERS = {"timestamp": int, "amount": float}

    tx_id: np.ndarray
    timestamp: np.ndarray
    user_id: np.ndarray
    terminal_id: np.ndarray
    amount: np.ndarray
    tx_type: np.ndarray
    label: np.ndarray
    scenario: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["Dataset"]):
        """The parts' rows one after another, as a table of this type."""
        return cls(**{f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)})

    def _sorted(self) -> "Dataset":
        """The rows in (timestamp, tx_id) order, ties keeping their order; the
        table itself, not a copy, when its rows are in that order already."""
        ts, ids = self.timestamp, self.tx_id
        tied = ts[1:] == ts[:-1]
        if (ts[1:] >= ts[:-1]).all() and (ids[1:][tied] >= ids[:-1][tied]).all():
            return self
        return self[np.lexsort((ids, ts))]

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


def _check_header(header: list[str], table: type) -> tuple[str, ...]:
    own = tuple(f.name for f in fields(table))[len(BASE_COLUMNS + OPTIONAL_COLUMNS) :]
    cleaned = tuple(h.strip() for h in header)
    heads = (BASE_COLUMNS, BASE_COLUMNS + ("label",), BASE_COLUMNS + OPTIONAL_COLUMNS)
    if cleaned not in [head + own for head in heads]:
        then = f", then {list(own)}" if own else ""
        raise ParseError(
            f"line 1: bad header {list(cleaned)}; expected {list(BASE_COLUMNS)} "
            f"with optional trailing 'label' and 'scenario' columns{then}"
        )
    return cleaned


def _amount(text: str) -> float | None:
    """float() of ASCII text without '_' (the amount grammar, inf and nan), else None."""
    try:
        return float(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


def _integer(text: str) -> int | None:
    return int(text) if _EPOCH.fullmatch(text) else None


def _epoch_seconds(text: str) -> int | None:
    try:
        return parse_timestamp(text)
    except ValueError:
        return None


# per number type: the reader of one cell (None when it does not read), and
# the detail naming a cell that does not read; timestamps also read ISO-8601
_CELLS = {int: (_integer, "not an integer: {!r}"), float: (_amount, "not a number: {!r}")}
_TIMESTAMP_CELLS = (_epoch_seconds, "not epoch seconds or ISO-8601: {!r}")


def _numbers(cells: Sequence[str], kind: type, read):
    """Cells as an int64 or float64 column, the cells stripped, the values
    its errors show, and the rows that are empty, given but unreadable, and
    beyond the type (outside int64, or not finite). One read of the whole
    chunk comes first (int() and float() strip a cell themselves); when it
    passes, only a float's finite test is built. Else each stripped cell is
    read by `read`; one that does not read is 0 or NaN, and an int outside
    int64 is clipped into it."""
    joined = "".join(cells)
    if joined.isascii() and "_" not in joined:
        try:
            column = np.fromiter(map(kind, cells), np.int64 if kind is int else np.float64, len(cells))
        except (ValueError, OverflowError):
            pass
        else:
            return column, cells, column, None, None, None if kind is int else ~np.isfinite(column)
    cells = list(map(str.strip, cells))
    values = list(map(read, cells))
    given = np.array(cells, dtype=object) != ""
    unread = given & np.array([v is None for v in values], dtype=bool)
    if kind is float:
        column = np.array(values, dtype=np.float64)  # None reads as NaN
        return column, cells, values, ~given, unread, given & ~np.isfinite(column)
    beyond = [v is not None and not _INT64.min <= v <= _INT64.max for v in values]
    column = np.array([0 if v is None else min(max(v, _INT64.min), _INT64.max) for v in values], np.int64)
    return column, cells, values, ~given, unread, beyond


def _convert(rows: list[list], columns: tuple[str, ...], table: type, must: set[str], shared: dict):
    """CSV rows, each ending in its line number, as a `table` in file order,
    converted and checked a column at a time; ParseError names the first bad
    row and its first bad field. Each check first tests the whole chunk and
    finds its failing rows only when that test fails. A cell of a column in
    `must` may not be empty. `shared` keeps one copy of each string of the
    text columns whose values repeat, all but tx_id."""
    *text, lines = zip(*rows) if rows else [()] * (len(columns) + 1)
    raw = {name: ("",) * len(rows) for name in OPTIONAL_COLUMNS}
    raw.update(zip(columns, text))
    # checks: (field, failing rows or None, detail, the values it shows), in
    # order; a mask may be wrong only at rows that an earlier check fails
    out, checks = {}, []
    for name in (f.name for f in fields(table)):
        kind = table.NUMBERS.get(name)
        if kind is None:  # text: no CR or LF, as csv.writer leaves a lone CR unquoted
            cells = shown = list(map(str.strip, raw[name]))
            kept = cells if name == "tx_id" else list(map(shared.setdefault, cells, cells))
            out[name] = np.array(kept, dtype=object)
            empty = [not s for s in cells] if "" in cells else None
            joined, grammar, after = "".join(cells), [], []
            if name == "tx_id" and not TX_ID_PATTERN.fullmatch(joined):
                grammar = [([TX_ID_PATTERN.fullmatch(s) is None for s in cells],
                            "{!r} has characters outside [A-Za-z0-9_.-]", cells)]
            elif name != "tx_id" and ("\r" in joined or "\n" in joined):
                after = [(["\r" in s or "\n" in s for s in cells], "{!r} holds a CR or LF", cells)]
        else:
            read, unreadable = _TIMESTAMP_CELLS if name == "timestamp" else _CELLS[kind]
            out[name], cells, shown, empty, unread, beyond = _numbers(raw[name], kind, read)
            grammar = [(unread, unreadable, cells)]
            if kind is float:
                grammar.append((beyond, "must be finite", shown))
            after = [(beyond, "out of the int64 range: {!r}", cells)] if kind is int else []
        missing = [(empty, "missing value", cells)] if name in must else []
        test, detail = VALUE_RULES.get(name, (None, None))
        ruled = [(test(out[name] if kind else cells), detail, shown)] if test else []
        checks += [(name, *check) for check in missing + grammar + ruled + after]
    failures = [(int(hits[0]), k) for k, (_, bad, _, _) in enumerate(checks)
                if bad is not None and len(hits := np.flatnonzero(bad))]
    if failures:
        row, k = min(failures)
        field, _, detail, values = checks[k]
        raise ParseError(f"line {lines[row]}, field '{field}': {detail.format(values[row])}")
    return table(**out)


def parse_transactions(source: str | Iterable[str], table: type = Dataset, required: Iterable[str] = ()):
    """CSV text (or an iterable of lines) as a sorted `table`, by default a Dataset.

    The header is BASE_COLUMNS, then label and scenario if present, then the
    table type's own columns. Rows are preserved verbatim apart from type
    conversion; duplicate tx_ids and missing field values survive until
    cleanse. Blank lines are skipped. Each row needs one field per column;
    tx_id, the int columns and the `required` ones need a value. Rows are
    converted CHUNK_ROWS at a time, and an error names the first bad row in
    file order.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty input, header row required") from None
    except csv.Error as e:
        raise ParseError(f"line {reader.line_num}: {e}") from None
    columns = _check_header(header, table)
    must = {"tx_id", *required, *(name for name, kind in table.NUMBERS.items() if kind is int)}
    parts, chunk, shared = [], [], {}
    stop: Exception | None = None  # raised unless a row before it is bad
    try:
        for values in filter(None, reader):
            if len(values) != len(columns):
                stop = ParseError(
                    f"line {reader.line_num}: expected {len(columns)} fields, got {len(values)}"
                )
                break
            values.append(reader.line_num)
            chunk.append(values)
            if len(chunk) == CHUNK_ROWS:
                parts.append(_convert(chunk, columns, table, must, shared))
                chunk = []
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        stop = ParseError(f"line {reader.line_num}: {e}")
    except UnicodeDecodeError as e:  # load_transactions says where, in the file
        stop = e
    parts.append(_convert(chunk, columns, table, must, shared))
    if stop is not None:
        raise stop
    return table.concat(parts)._sorted()


def load_transactions(path: str | Path, table: type = Dataset, required: Iterable[str] = ()):
    """parse_transactions of the file at path; an error names the path. Bytes
    that are not UTF-8 fail by the line and the file offset of the first one."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        try:
            return parse_transactions(f, table, required)
        except ParseError as e:
            raise ParseError(f"{path}: {e}") from None
        except UnicodeDecodeError:  # its position counts from the decoder's last chunk
            data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len(data[: e.start + 1].splitlines())  # the lines csv counts: LF, CR or CRLF ends one
        raise ParseError(
            f"{path}: line {line}: byte {data[e.start]:#04x} at offset {e.start} is not UTF-8 ({e.reason})"
        ) from None
    raise ParseError(f"{path}: not UTF-8")  # the file changed while it was read


def _csv_text(column: np.ndarray) -> list[str]:
    if column.dtype == np.float64:  # NaN is a missing amount
        return [repr(a) if a == a else "" for a in column.tolist()]
    return column.tolist() if column.dtype == object else list(map(str, column.tolist()))


def rows_to_csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A header line, then one line per row. csv writes a float by its repr,
    so a read gives back its bits, and None as an empty field."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def serialize_transactions(t: Dataset) -> str:
    """CSV text of a table's columns in field order, CHUNK_ROWS rows at a time;
    inverse of parse_transactions.

    Timestamps are emitted as epoch seconds, amounts via repr. The scenario
    column appears only when some row carries a scenario tag.
    """
    names = [f.name for f in fields(t) if f.name != "scenario" or (t.scenario != "").any()]
    chunks = (
        zip(*(_csv_text(getattr(t, name)[lo : lo + CHUNK_ROWS]) for name in names))
        for lo in range(0, len(t), CHUNK_ROWS)
    )
    return rows_to_csv(names, chain.from_iterable(chunks))


def save_transactions(d: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_transactions(d), encoding="utf-8", newline="")
