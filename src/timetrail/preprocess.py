"""Dataset cleansing and chronological splitting, on the Dataset's columns.

Both give plain data: ``cleanse`` returns the kept rows with its report as a
dict (the cleanse_report.json document), and ``temporal_split`` the parts as
a dict of train, val and test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset

# Fields a row must carry to be usable downstream.
MANDATORY_FIELDS = ("user_id", "terminal_id", "amount", "tx_type")

# Fallback duplicate key when tx_id cannot be trusted.
COMPOSITE_KEY_FIELDS = ("user_id", "timestamp", "amount", "terminal_id")


@dataclass(frozen=True, slots=True)
class CleansePolicy:
    dedupe_key: str = "tx_id"  # "tx_id" or "composite"
    remove_outliers: bool = True
    iqr_k: float = 3.0

    def __post_init__(self) -> None:
        if self.dedupe_key not in ("tx_id", "composite"):
            raise ValueError(f"dedupe_key must be 'tx_id' or 'composite', got {self.dedupe_key!r}")
        if not 0.0 <= self.iqr_k < math.inf:
            raise ValueError(f"iqr_k must be finite and non-negative, got {self.iqr_k}")


def _first_rows(d: Dataset, policy: CleansePolicy) -> np.ndarray:
    """Ascending positions of the first row of each duplicate key; keys
    compare as Python values, so -0.0 == 0.0 and missing == missing."""
    if policy.dedupe_key == "tx_id":
        keys = d.tx_id.tolist()
    else:
        columns = [getattr(d, name).tolist() for name in COMPOSITE_KEY_FIELDS]
        i = COMPOSITE_KEY_FIELDS.index("amount")
        columns[i] = [None if a != a else a for a in columns[i]]  # NaN != NaN, None == None
        keys = list(zip(*columns))
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.sort(np.fromiter(first.values(), np.int64, len(first)))


def amount_fences(amounts: Sequence[float], k: float) -> tuple[float, float]:
    """Tukey fences [Q1 - k*IQR, Q3 + k*IQR], quartiles by linear interpolation."""
    arr = np.asarray(amounts, dtype=float)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    iqr = q3 - q1
    return (float(q1 - k * iqr), float(q3 + k * iqr))


def cleanse(d: Dataset, policy: CleansePolicy | None = None) -> tuple[Dataset, dict]:
    """Drop duplicates (first kept), rows with missing mandatory fields, and
    optionally amount outliers beyond the IQR fences. A missing field is ""
    or, for the amount, NaN. The report is the cleanse_report.json document:
    the row counts and the fences (None when outliers are kept).

    Each removed row is counted once, in the first category that catches it;
    rows_in == rows_out + duplicates_dropped + missing_dropped + outliers_removed.
    """
    policy = policy or CleansePolicy()

    # dataset order, so "first" is earliest (timestamp, tx_id)
    kept = _first_rows(d, policy)
    duplicates = len(d) - len(kept)

    missing_mask = np.isnan(d.amount)
    for name in MANDATORY_FIELDS:
        if name != "amount":
            missing_mask |= getattr(d, name) == ""
    complete = kept[~missing_mask[kept]]
    missing = len(kept) - len(complete)

    fence_low: float | None = None
    fence_high: float | None = None
    kept = complete
    if policy.remove_outliers and len(complete):
        amount = d.amount[complete]
        fence_low, fence_high = amount_fences(amount, policy.iqr_k)
        kept = complete[(amount >= fence_low) & (amount <= fence_high)]
    outliers = len(complete) - len(kept)

    out = d[kept]
    report = {
        "rows_in": len(d),
        "rows_out": len(out),
        "duplicates_dropped": duplicates,
        "missing_dropped": missing,
        "outliers_removed": outliers,
        "amount_fence_low": fence_low,
        "amount_fence_high": fence_high,
    }
    return out, report


@dataclass(frozen=True, slots=True)
class SplitFractions:
    train_frac: float = 0.6
    val_frac: float = 0.2

    def __post_init__(self) -> None:
        """Refuse fractions outside (0, 1) or leaving no room for test."""
        train_frac, val_frac = self.train_frac, self.val_frac
        if not (0.0 < train_frac < 1.0 and 0.0 < val_frac < 1.0):
            raise ValueError(f"fractions must be in (0, 1), got train={train_frac} val={val_frac}")
        if train_frac + val_frac >= 1.0:
            raise ValueError(
                f"train_frac + val_frac must leave room for test, got {train_frac + val_frac}"
            )


def temporal_split(d: Dataset, split: SplitFractions) -> dict[str, Dataset]:
    """Chronological three-way split at timestamp quantile boundaries, as
    {"train", "val", "test"} in that order.

    Rows sharing a boundary timestamp all go to the earlier part, so no
    timestamp straddles a boundary. Errors if any part would be empty.
    """
    ts = d.timestamp
    n = len(ts)

    def cut(frac: float, lo: int) -> int:
        c = max(int(n * frac), lo)
        if 0 < c < n:  # ties on the boundary timestamp stay with the earlier part
            c = int(np.searchsorted(ts, ts[c - 1], "right"))
        return c

    c1 = cut(split.train_frac, 0)
    c2 = cut(split.train_frac + split.val_frac, c1)
    if c1 == 0 or c2 == c1 or c2 == n:
        raise ValueError(
            "dataset too small to populate train, val, and test at these fractions"
        )
    return {"train": d[:c1], "val": d[c1:c2], "test": d[c2:]}
