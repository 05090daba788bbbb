"""Feature tables for model input, plus min-max scaling fit on train only."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import TX_TYPES
from .enrich import ATTRIBUTE_NAMES, EnrichedTable

# Raw features available without enrichment: amount plus tx_type one-hots.
# Identifiers and the raw epoch timestamp are deliberately excluded.
RAW_FEATURES = ("amount",) + tuple(f"tx_type_{t}" for t in TX_TYPES)
ENRICHED_FEATURES = RAW_FEATURES + ATTRIBUTE_NAMES


@dataclass(frozen=True)
class FeatureTable:
    """Rectangular numeric matrix with named columns.

    tx_ids name every row, for fingerprints and explanations. labels are
    0 (legit) / 1 (fraud) when every row is labeled, else None.
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    tx_ids: tuple[str, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.feature_names):
            raise ValueError(
                f"rows must be (n, {len(self.feature_names)}) to match feature_names, "
                f"got shape {rows.shape}"
            )
        object.__setattr__(self, "rows", rows)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (rows.shape[0],):
                raise ValueError("labels length must match row count")
            if not np.isin(labels, (0, 1)).all():
                raise ValueError("labels must be 0 or 1")
            object.__setattr__(self, "labels", labels)
        if len(self.tx_ids) != rows.shape[0]:
            raise ValueError("tx_ids length must match row count")

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def take(self, indices: Sequence[int]) -> "FeatureTable":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureTable(
            feature_names=self.feature_names,
            rows=self.rows[idx],
            tx_ids=tuple(self.tx_ids[i] for i in idx),
            labels=None if self.labels is None else self.labels[idx],
        )


def _labels_of(rows: EnrichedTable) -> np.ndarray | None:
    if (rows.label == "").any():
        return None
    return (rows.label == "fraud").astype(np.int64)


def _raw_matrix(rows: EnrichedTable) -> np.ndarray:
    one_hot = rows.tx_type[:, None] == np.array(TX_TYPES, dtype=object)
    return np.column_stack([rows.amount, one_hot]).astype(np.float64)


def _table(rows: EnrichedTable, names: tuple[str, ...], matrix: np.ndarray) -> FeatureTable:
    return FeatureTable(
        feature_names=names, rows=matrix, tx_ids=tuple(rows.tx_id.tolist()), labels=_labels_of(rows)
    )


def raw_feature_table(rows: EnrichedTable) -> FeatureTable:
    """Parity baseline inputs: no temporal information."""
    return _table(rows, RAW_FEATURES, _raw_matrix(rows))


def enriched_feature_table(rows: EnrichedTable) -> FeatureTable:
    """Raw features plus the nine temporal attributes, in declared order."""
    attrs = [rows.column(a) for a in ATTRIBUTE_NAMES]
    return _table(rows, ENRICHED_FEATURES, np.column_stack([_raw_matrix(rows), *attrs]))


def json_number(value, what: str) -> float:
    """A number of a model or scaler document as a float: a finite JSON int or
    float. A bool, a string, NaN or an infinity is refused, naming `what`;
    training writes none of them, and NaN or an infinity spoils every score."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(number := float(value)):  # an int past the float range raises
        raise ValueError(f"{what} must be finite, got {number}")
    return number


def fit_scaler(train: FeatureTable) -> dict:
    """The scaler document `{"feature_names", "mins", "maxs"}`: per-feature
    min/max from training rows only, of a table that passes
    model.check_training_table."""
    return {
        "feature_names": list(train.feature_names),
        "mins": train.rows.min(axis=0).tolist(),
        "maxs": train.rows.max(axis=0).tolist(),
    }


def apply_scaler(params: dict, table: FeatureTable) -> FeatureTable:
    """Map each feature to [0, 1] by a scaler document; out-of-range values
    clip to the ends.

    A feature whose training min equals its max maps to the constant 0.0.
    A min or max that is not a finite number, or a min above its max, is
    refused, naming its feature.
    """
    names = tuple(params["feature_names"])
    if names != table.feature_names:
        raise ValueError(
            f"scaler features {names} do not match table features {table.feature_names}"
        )

    def ends(key: str) -> np.ndarray:
        if len(params[key]) != len(names):
            raise ValueError(f"scaler {key} must be a list of {len(names)} numbers, one per feature name")
        return np.array([json_number(v, f"scaler {key} of {n!r}") for n, v in zip(names, params[key])])

    mins, maxs = ends("mins"), ends("maxs")
    above = np.flatnonzero(mins > maxs)
    if above.size:
        i = above[0]
        raise ValueError(f"scaler min of {names[i]!r} is {mins[i]}, above its max {maxs[i]}")
    span = maxs - mins
    degenerate = span == 0.0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = table.rows - mins
    scaled /= safe_span
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled[:, degenerate] = 0.0
    return FeatureTable(
        feature_names=table.feature_names, rows=scaled, tx_ids=table.tx_ids, labels=table.labels
    )


def save_scaler(params: dict, path: str | Path) -> None:
    text = json.dumps(params, indent=2, sort_keys=True)
    Path(path).write_text(text, encoding="utf-8", newline="")


def load_scaler(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
