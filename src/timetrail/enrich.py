"""Temporal enrichment: per-transaction attributes computed from history only.

The rolling counts cover the half-open window (t - w, t] and include the row
itself and its same-second peers, so counts are always >= 1. The recency is
capped at RECENCY_CAP_SECONDS (30 days), which a user's first transaction
also gets. The 30-day amount mean uses strictly earlier rows only. Nothing
after a row's timestamp can influence its attributes.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, day_of_week, hour_of_day, load_transactions
from .preprocess import MANDATORY_FIELDS

DAY = 86400
ATTRIBUTE_NAMES = (
    "hour_of_day",
    "day_of_week",
    "is_night",
    "seconds_since_last_user_tx",
    "user_tx_count_24h",
    "user_tx_count_48h",
    "user_tx_count_7d",
    "terminal_tx_count_48h",
    "amount_over_user_mean_30d",
)

# Night is the half-open hour range [0, 6).
NIGHT_END_HOUR = 6
# Ratio floor keeping amount_over_user_mean_30d strictly positive for 0 amounts.
MIN_AMOUNT_RATIO = 1e-9
AMOUNT_MEAN_WINDOW = 30 * DAY
# Recency saturates here; also the sentinel for a user's first transaction.
RECENCY_CAP_SECONDS = 30 * DAY


@dataclass(frozen=True, eq=False)
class EnrichedTable(Dataset):
    """Enriched transactions: the Dataset's columns, then one numpy column per
    temporal attribute, in ATTRIBUTE_NAMES order.

    The attribute columns are int64 apart from amount_over_user_mean_30d.
    """

    NUMBERS = Dataset.NUMBERS | dict.fromkeys(ATTRIBUTE_NAMES, int) | {"amount_over_user_mean_30d": float}

    hour_of_day: np.ndarray
    day_of_week: np.ndarray
    is_night: np.ndarray
    seconds_since_last_user_tx: np.ndarray
    user_tx_count_24h: np.ndarray
    user_tx_count_48h: np.ndarray
    user_tx_count_7d: np.ndarray
    terminal_tx_count_48h: np.ndarray
    amount_over_user_mean_30d: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """A temporal attribute, or the base amount, as float64."""
        if name not in ATTRIBUTE_NAMES and name != "amount":
            raise ValueError(
                f"unknown attribute {name!r}; expected one of {ATTRIBUTE_NAMES + ('amount',)}"
            )
        return getattr(self, name).astype(np.float64)


def read_enriched_csv(path: str | Path, labeled: bool = False) -> EnrichedTable:
    """An enriched file's table; each row needs the mandatory fields and the
    attributes, and a label too when `labeled`."""
    return load_transactions(path, EnrichedTable, MANDATORY_FIELDS + ATTRIBUTE_NAMES + ("label",) * labeled)


def _group_keys(ids: np.ndarray, ts: np.ndarray):
    """Sort rows stably by (group, position) and key each by (group, second).

    Returns the permutation, the sort keys and each row's offset (timestamp
    less the smallest one); a group's keys start at key - offset. Dataset
    order is chronological, so keys ascend within and across groups.
    """
    groups, codes = np.unique(ids, return_inverse=True)
    t_min, t_max = (int(ts.min()), int(ts.max())) if len(ts) else (0, 0)
    span = t_max - t_min + 1
    if len(groups) * span >= 2**63:
        raise ValueError("timestamps span too wide to key every group in int64")
    order = np.argsort(codes, kind="stable")
    offset = ts[order] - t_min
    return order, codes[order] * span + offset, offset


def _window_starts(key: np.ndarray, offset: np.ndarray, window: int) -> np.ndarray:
    """Index of each row's first group peer with timestamp > t - window.

    A query below the group's first key is clamped to just under it, so it
    never reaches into the previous group.
    """
    return np.searchsorted(key, key - np.minimum(offset + 1, window), side="right")


def _window_counts(order, key, offset, window: int) -> np.ndarray:
    """Each row's count of group peers with timestamp in (t - window, t]."""
    counts = np.empty(len(key), dtype=np.int64)
    counts[order] = np.searchsorted(key, key, side="right") - _window_starts(key, offset, window)
    return counts


def _earlier_sums(values: np.ndarray, group_start: np.ndarray) -> np.ndarray:
    """Sum of the earlier values in each row's group, added in group order.

    Each group's running sum starts at 0.0 and grows one addition at a time,
    as a sequential loop would, so the means derived from it keep their bits
    (one global cumsum would not). The loop runs over positions within a
    group; each step covers every group that is still that long.
    """
    out = np.zeros(len(values))
    starts = np.unique(group_start)
    sizes = np.diff(np.append(starts, len(values)))
    running = np.zeros(len(starts))
    for i in range(int(sizes.max(initial=0))):
        live = sizes > i
        rows = starts[live] + i
        out[rows] = running[live]
        running[live] += values[rows]
    return out


def _recency_and_ratio(
    order, key, offset, ts: np.ndarray, amount: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Seconds since the user's previous transaction, and amount over the mean
    of the user's strictly earlier rows in (t - 30d, t).

    A same-second tie gives recency 0, a user's first transaction the cap, and
    longer gaps saturate at the cap. No earlier rows, or a non-positive mean,
    gives the neutral ratio 1.0; ratios are floored at MIN_AMOUNT_RATIO.
    """
    tie_start = np.searchsorted(key, key, side="left")
    tie_end = np.searchsorted(key, key, side="right")
    group_start = np.searchsorted(key, key - offset, side="left")
    ts, amount = ts[order], amount[order]

    gap = np.minimum(ts - ts[np.maximum(tie_start - 1, 0)], RECENCY_CAP_SECONDS)
    recency = np.where(tie_start == group_start, RECENCY_CAP_SECONDS, gap)
    recency[tie_end - tie_start > 1] = 0

    earlier = _earlier_sums(amount, group_start)
    left = _window_starts(key, offset, AMOUNT_MEAN_WINDOW)
    count = tie_start - left
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = (earlier[tie_start] - earlier[left]) / count
        ratio = np.maximum(MIN_AMOUNT_RATIO, amount / mean)
    ratio[~np.isfinite(ratio)] = sys.float_info.max
    ratio[(count <= 0) | ~(mean > 0.0)] = 1.0

    out_recency, out_ratio = np.empty_like(recency), np.empty_like(ratio)
    out_recency[order], out_ratio[order] = recency, ratio
    return out_recency, out_ratio


def enrich(d: Dataset) -> EnrichedTable:
    """Attach the nine temporal attributes to every row, in dataset order."""
    bad = (d.user_id == "") | (d.terminal_id == "") | np.isnan(d.amount)
    if bad.any():
        raise ValueError(
            f"transaction {d.tx_id[bad.argmax()]} has missing fields; cleanse the dataset before enriching"
        )
    ts = d.timestamp
    by_user = _group_keys(d.user_id, ts)
    recency, ratio = _recency_and_ratio(*by_user, ts, d.amount)
    hour = hour_of_day(ts)
    return EnrichedTable(
        **{f.name: getattr(d, f.name) for f in fields(Dataset)},
        hour_of_day=hour,
        day_of_week=day_of_week(ts),
        is_night=(hour < NIGHT_END_HOUR).astype(np.int64),
        seconds_since_last_user_tx=recency,
        user_tx_count_24h=_window_counts(*by_user, DAY),
        user_tx_count_48h=_window_counts(*by_user, 2 * DAY),
        user_tx_count_7d=_window_counts(*by_user, 7 * DAY),
        terminal_tx_count_48h=_window_counts(*_group_keys(d.terminal_id, ts), 2 * DAY),
        amount_over_user_mean_30d=ratio,
    )
