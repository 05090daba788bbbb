"""Dataset cleansing and chronological splitting."""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .data import Dataset, Transaction

# Fields a row must carry to be usable downstream.
MANDATORY_FIELDS = ("user_id", "terminal_id", "amount", "tx_type")

# Fallback duplicate key when tx_id cannot be trusted.
COMPOSITE_KEY_FIELDS = ("user_id", "timestamp", "amount", "terminal_id")


@dataclass(frozen=True, slots=True)
class CleansePolicy:
    dedupe_key: str = "tx_id"  # "tx_id" or "composite"
    remove_outliers: bool = True
    iqr_k: float = 3.0

    def validate(self) -> None:
        if self.dedupe_key not in ("tx_id", "composite"):
            raise ValueError(f"dedupe_key must be 'tx_id' or 'composite', got {self.dedupe_key!r}")
        if self.iqr_k < 0:
            raise ValueError(f"iqr_k must be non-negative, got {self.iqr_k}")


@dataclass(frozen=True, slots=True)
class CleanseReport:
    rows_in: int
    rows_out: int
    duplicates_dropped: int
    missing_dropped: int
    outliers_removed: int
    amount_fence_low: float | None
    amount_fence_high: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _dup_key(t: Transaction, policy: CleansePolicy):
    if policy.dedupe_key == "tx_id":
        return t.tx_id
    return tuple(getattr(t, f) for f in COMPOSITE_KEY_FIELDS)


def amount_fences(amounts: Sequence[float], k: float) -> tuple[float, float]:
    """Tukey fences [Q1 - k*IQR, Q3 + k*IQR], quartiles by linear interpolation."""
    arr = np.asarray(amounts, dtype=float)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    iqr = q3 - q1
    return (float(q1 - k * iqr), float(q3 + k * iqr))


def cleanse(d: Dataset, policy: CleansePolicy | None = None) -> tuple[Dataset, CleanseReport]:
    """Drop duplicates (first kept), rows with missing mandatory fields, and
    optionally amount outliers beyond the IQR fences.

    Each removed row is counted once, in the first category that catches it;
    rows_in == rows_out + duplicates_dropped + missing_dropped + outliers_removed.
    """
    policy = policy or CleansePolicy()
    policy.validate()

    seen: set = set()
    deduped: list[Transaction] = []
    duplicates = 0
    for t in d.transactions:  # dataset order, so "first" is earliest (timestamp, tx_id)
        key = _dup_key(t, policy)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        deduped.append(t)

    complete: list[Transaction] = []
    missing = 0
    for t in deduped:
        if any(getattr(t, f) is None for f in MANDATORY_FIELDS):
            missing += 1
            continue
        complete.append(t)

    outliers = 0
    fence_low: float | None = None
    fence_high: float | None = None
    kept = complete
    if policy.remove_outliers and complete:
        fence_low, fence_high = amount_fences([t.amount for t in complete], policy.iqr_k)
        kept = []
        for t in complete:
            if t.amount < fence_low or t.amount > fence_high:
                outliers += 1
            else:
                kept.append(t)

    out = Dataset.from_rows(kept)
    report = CleanseReport(
        rows_in=len(d),
        rows_out=len(out),
        duplicates_dropped=duplicates,
        missing_dropped=missing,
        outliers_removed=outliers,
        amount_fence_low=fence_low,
        amount_fence_high=fence_high,
    )
    return out, report


@dataclass(frozen=True)
class Split:
    train: Dataset
    val: Dataset
    test: Dataset


def temporal_split(d: Dataset, train_frac: float, val_frac: float) -> Split:
    """Chronological three-way split at timestamp quantile boundaries.

    Rows sharing a boundary timestamp all go to the earlier part, so no
    timestamp straddles a boundary. Errors if any part would be empty.
    """
    if not (0.0 < train_frac < 1.0 and 0.0 < val_frac < 1.0):
        raise ValueError(f"fractions must be in (0, 1), got train={train_frac} val={val_frac}")
    if train_frac + val_frac >= 1.0:
        raise ValueError(
            f"train_frac + val_frac must leave room for test, got {train_frac + val_frac}"
        )
    rows = d.transactions
    n = len(rows)

    def cut(frac: float, lo: int) -> int:
        c = int(n * frac)
        if c < lo:
            c = lo
        # ties on the boundary timestamp stay with the earlier part
        while 0 < c < n and rows[c].timestamp == rows[c - 1].timestamp:
            c += 1
        return c

    c1 = cut(train_frac, 0)
    c2 = cut(train_frac + val_frac, c1)
    if c1 == 0 or c2 == c1 or c2 == n:
        raise ValueError(
            "dataset too small to populate train, val, and test at these fractions"
        )
    return Split(
        train=Dataset.from_rows(rows[:c1]),
        val=Dataset.from_rows(rows[c1:c2]),
        test=Dataset.from_rows(rows[c2:]),
    )
