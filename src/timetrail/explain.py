"""Decision-path attribution for the boosted ensemble, and the temporal
interpretability score (TIS) built on top of it.

Walking a tree from root to leaf, every edge credits the change in node value
(the would-be leaf weight) to the feature tested at the parent. Scaled by the
ensemble's learning rate and telescoped over all trees, these deltas satisfy
an exact completeness identity:

    bias + sum(contributions) == raw margin

where bias is base_score plus the learning-rate-scaled sum of root values.

TIS for one prediction is the share of absolute contribution mass carried by
the nine temporal attributes (`ATTRIBUTE_NAMES`); it is 0 when the total mass
is 0, and always in [0, 1]. `tis_report.json` names that set under
"temporal_feature_set".

An explanation is one JSON document from explanation_sequence through
sequence_to_json and the sequence file to render_sequence: tx_id, bias,
steps (the path in (tree, depth) order, one {tree, feature, threshold,
branch, delta} per split: branch "left" when value < threshold, else "right",
delta the learning-rate-scaled change in node value), feature_contributions
(the deltas summed per feature), margin, probability and tis.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .enrich import ATTRIBUTE_NAMES
from .features import FeatureTable
from .model import GBTModel, aligned_rows, feature_major, predict_proba, sigmoid


def _walk_row(model: GBTModel, row: np.ndarray):
    """Yield (tree_index, feature_index, threshold, branch, raw_delta) steps."""
    x = row.tolist()
    for t_i, tree in enumerate(model.trees):
        feature, threshold, children, value = tree.feature, tree.threshold, tree.children, tree.value
        i = 0
        while children.item(2 * i) != i:  # not a leaf
            f, thr = feature.item(i), threshold.item(i)
            left = x[f] < thr
            child = children.item(2 * i + left)
            yield t_i, f, thr, "left" if left else "right", value.item(child) - value.item(i)
            i = child


def ensemble_bias(model: GBTModel) -> float:
    return model.base_score + model.learning_rate * sum(t.value.item(0) for t in model.trees)


def explanation_sequence(model: GBTModel, table: FeatureTable, row_index: int) -> dict:
    """One row's explanation document (see the module docstring)."""
    row = aligned_rows(model.feature_names, table)[row_index]
    steps, totals = [], {}
    for t_i, f, thr, branch, delta in _walk_row(model, row):
        name, delta = model.feature_names[f], model.learning_rate * delta
        steps.append({"tree": t_i, "feature": name, "threshold": thr, "branch": branch, "delta": delta})
        totals[name] = totals.get(name, 0.0) + delta
    bias = ensemble_bias(model)
    margin = bias + sum(s["delta"] for s in steps)
    return {
        "tx_id": table.tx_ids[row_index],
        "bias": bias,
        "feature_contributions": {k: totals[k] for k in sorted(totals)},
        "margin": margin,
        "probability": float(sigmoid(margin)),
        "tis": tis(totals),
        "steps": steps,
    }


def attribution_matrix(model: GBTModel, table: FeatureTable) -> tuple[np.ndarray, float]:
    """(n_rows, n_features) contribution matrix plus the shared bias.

    Level-by-level vectorized edge walk over each tree; row sums plus bias
    equal the margins exactly (explanation_sequence's additions,
    reordered). Edge e from node i to children[e] carries
    lr * (value[children[e]] - value[i]), and a leaf's self-edges carry +0.0,
    which leaves a cell as it is. At each level every row adds its edge's
    delta to one cell, (tested feature, row), of a feature-major buffer; the
    cells differ by row, so a plain fancy-index += adds them all.
    """
    columns = feature_major(aligned_rows(model.feature_names, table))
    contrib = np.zeros(columns.shape, dtype=np.float64)
    cells = contrib.ravel()  # a view: (feature, row) is cell feature * n_rows + row
    for tree in model.trees:
        parent = np.arange(tree.children.size) // 2
        delta = np.where(
            tree.children == parent, 0.0,
            model.learning_rate * (tree.value[tree.children] - tree.value[parent]),
        )
        for cell, edge in tree.edges(columns):
            cells[cell] += delta[edge]
    return np.ascontiguousarray(contrib.T), ensemble_bias(model)


# ---------------------------------------------------------------------------
# temporal interpretability score


def tis(contributions: Mapping[str, float]) -> float:
    """Share of absolute contribution mass on the temporal attributes, in [0, 1]."""
    total = 0.0
    t_mass = 0.0
    for name, value in contributions.items():
        mass = abs(value)
        total += mass
        if name in ATTRIBUTE_NAMES:
            t_mass += mass
    if total == 0.0:
        return 0.0
    return min(1.0, t_mass / total)


@dataclass(frozen=True)
class TISReport:
    threshold: float
    per_tx: tuple[tuple[str, float], ...]  # (tx_id, tis) for every scored row
    flagged_tx_ids: tuple[str, ...]
    aggregate: float | None  # mean TIS over flagged rows; None when none flagged

    def to_json(self) -> str:
        doc = {
            "temporal_feature_set": list(ATTRIBUTE_NAMES),
            "threshold": self.threshold,
            "flagged_tx_ids": list(self.flagged_tx_ids),
            "aggregate": self.aggregate,
        }
        per_tx = [{"tx_id": t, "tis": v} for t, v in self.per_tx]
        return _dumps_with_records(doc, "per_tx", per_tx)


def aggregate_tis(model: GBTModel, table: FeatureTable, threshold: float = 0.5) -> TISReport:
    """Per-row TIS for every row; aggregate averages the rows the model flags.

    Temporal attributes absent from the model's features contribute no mass.
    """
    contrib, _ = attribution_matrix(model, table)
    temporal = [i for i, f in enumerate(model.feature_names) if f in ATTRIBUTE_NAMES]
    mass = np.abs(contrib)
    total = mass.sum(axis=1)
    t_mass = mass[:, temporal].sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(total > 0.0, np.minimum(1.0, t_mass / np.maximum(total, 1e-300)), 0.0)
    probs = predict_proba(model, table)
    flagged = probs >= threshold
    aggregate = float(scores[flagged].mean()) if flagged.any() else None
    return TISReport(
        threshold=threshold,
        per_tx=tuple(zip(table.tx_ids, (float(s) for s in scores))),
        flagged_tx_ids=tuple(i for i, fl in zip(table.tx_ids, flagged) if fl),
        aggregate=aggregate,
    )


def sequence_to_json(seq: dict) -> str:
    """json.dumps(seq, indent=2, sort_keys=True) of an explanation document."""
    return _dumps_with_records(seq, "steps", seq["steps"])


def _dumps_with_records(doc: dict, key: str, records: Sequence[dict]) -> str:
    """json.dumps({**doc, key: records}, indent=2, sort_keys=True), byte for
    byte, with the records written directly.

    json's indenting encoder is pure Python and slow on long lists; here the
    records (flat dicts) go through its compact encoder in one call, with the
    indented form's separator inside a record. An encoded string holds no raw
    newline, so the text that call puts between two records occurs nowhere
    else, and it becomes the indented join. The rest of the document still
    goes through json.dumps.
    """
    text = json.dumps({**doc, key: []}, indent=2, sort_keys=True)
    if not records:
        return text
    # top-level keys are the only lines indented by exactly two spaces, and
    # strings hold no raw newline, so this marker occurs once
    marker = f"\n  {json.dumps(key)}: []"
    head, _, tail = text.partition(marker)
    items = json.dumps(list(records), sort_keys=True, separators=(",\n      ", ": "))
    items = items[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return f"{head}{marker[:-2]}[\n    {{\n      {items}\n    }}\n  ]{tail}"
