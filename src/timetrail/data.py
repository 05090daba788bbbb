"""Transaction data model and CSV ingestion.

Timestamps are integer epoch seconds, UTC. Input CSV may carry either epoch
seconds or ISO-8601 UTC strings; output always uses epoch seconds.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

TX_TYPES = ("purchase", "withdrawal", "transfer", "deposit")
LABELS = ("legit", "fraud")

# Columns in serialization order. label is optional on input, scenario is an
# auxiliary tag produced by the synthetic generator.
BASE_COLUMNS = ("tx_id", "timestamp", "user_id", "terminal_id", "amount", "tx_type")
OPTIONAL_COLUMNS = ("label", "scenario")

# tx_ids name artifact files (sequence_<tx_id>.json), so they stay path-safe.
TX_ID_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


class ParseError(ValueError):
    """Malformed input row; message names the line number and field."""


@dataclass(frozen=True, slots=True)
class Transaction:
    """One transaction. Fields may be None only between parse and cleanse."""

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


@dataclass(frozen=True, slots=True)
class DatasetMeta:
    row_count: int
    fraud_count: int
    fraud_rate: float | None
    t_min: int | None
    t_max: int | None


@dataclass(frozen=True)
class Dataset:
    """Immutable, sorted by (timestamp, tx_id). Build via from_rows."""

    transactions: tuple[Transaction, ...]
    meta: DatasetMeta

    @staticmethod
    def from_rows(rows: Iterable[Transaction]) -> "Dataset":
        txs = tuple(sorted(rows, key=Transaction.sort_key))
        return Dataset(transactions=txs, meta=_meta_of(txs))

    def __len__(self) -> int:
        return len(self.transactions)


def _meta_of(txs: Sequence[Transaction]) -> DatasetMeta:
    n = len(txs)
    fraud = sum(1 for t in txs if t.label == "fraud")
    labeled = any(t.label is not None for t in txs)
    rate = fraud / n if (labeled and n > 0) else None
    t_min = min((t.timestamp for t in txs), default=None)
    t_max = max((t.timestamp for t in txs), default=None)
    return DatasetMeta(row_count=n, fraud_count=fraud, fraud_rate=rate, t_min=t_min, t_max=t_max)


def parse_timestamp(raw: str) -> int:
    """Epoch seconds from an integer string or an ISO-8601 UTC string."""
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    dt = datetime.fromisoformat(iso)  # raises ValueError on junk
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return round(dt.timestamp())


def format_timestamp(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def hour_of_day(ts: int) -> int:
    return (ts % 86400) // 3600


def day_of_week(ts: int) -> int:
    # epoch day 0 (1970-01-01) was a Thursday; 0 = Monday
    return (ts // 86400 + 3) % 7


def _row_error(line: int, field: str, detail: str) -> ParseError:
    return ParseError(f"line {line}, field '{field}': {detail}")


def _parse_row(values: list[str], columns: tuple[str, ...], line: int) -> Transaction:
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
        ts = parse_timestamp(raw_ts)
    except ValueError:
        raise _row_error(line, "timestamp", f"not epoch seconds or ISO-8601: {raw_ts!r}") from None
    if ts <= 0:
        raise _row_error(line, "timestamp", f"must be positive epoch seconds, got {ts}")

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

    return Transaction(
        tx_id=tx_id,
        timestamp=ts,
        user_id=rec["user_id"] or None,
        terminal_id=rec["terminal_id"] or None,
        amount=amount,
        tx_type=tx_type,
        label=label,
        scenario=rec.get("scenario") or None,
    )


def _check_header(header: list[str]) -> tuple[str, ...]:
    cleaned = tuple(h.strip() for h in header)
    allowed = (
        BASE_COLUMNS,
        BASE_COLUMNS + ("label",),
        BASE_COLUMNS + ("label", "scenario"),
    )
    if cleaned not in allowed:
        raise ParseError(
            f"line 1: bad header {list(cleaned)}; expected {list(BASE_COLUMNS)} "
            "with optional trailing 'label' and 'scenario' columns"
        )
    return cleaned


def parse_transactions(source: str | Iterable[str]) -> Dataset:
    """Parse CSV text (or an iterable of lines) into a sorted Dataset.

    Rows are preserved verbatim apart from type conversion; duplicate tx_ids
    and missing field values survive until cleanse.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty input, header row required") from None
    columns = _check_header(header)
    rows = []
    for values in reader:
        if not values:
            continue  # blank line
        rows.append(_parse_row(values, columns, reader.line_num))
    return Dataset.from_rows(rows)


def load_transactions(path: str | Path) -> Dataset:
    with open(path, "r", newline="", encoding="utf-8") as f:
        return parse_transactions(f)


def load_tx_ids(path: str | Path) -> list[str]:
    """The stripped tx_id column of a transaction CSV, in file order.

    Checks the header but parses no other field; errors name the file.
    """
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            _check_header(next(reader, []))
        except ParseError as e:
            raise ParseError(f"{path}: {e}") from None
        return [values[0].strip() for values in reader if values]


def _format_amount(a: float | None) -> str:
    return "" if a is None else repr(a)


def serialize_transactions(d: Dataset) -> str:
    """CSV text for a dataset; inverse of parse_transactions.

    Timestamps are emitted as epoch seconds. The scenario column appears only
    when some row carries a scenario tag.
    """
    with_scenario = any(t.scenario is not None for t in d.transactions)
    columns = BASE_COLUMNS + (("label", "scenario") if with_scenario else ("label",))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for t in d.transactions:
        row = [
            t.tx_id,
            str(t.timestamp),
            t.user_id or "",
            t.terminal_id or "",
            _format_amount(t.amount),
            t.tx_type or "",
            t.label or "",
        ]
        if with_scenario:
            row.append(t.scenario or "")
        writer.writerow(row)
    return out.getvalue()


def save_transactions(d: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_transactions(d), encoding="utf-8")
