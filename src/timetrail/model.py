"""Gradient-boosted tree classifier and logistic baseline, from first principles.

Boosting fits each regression tree to the negative gradient of the logistic
loss (label minus predicted probability). Splits greedily maximize the
L2-regularized variance gain

    0.5 * (GL^2/(nL + l2) + GR^2/(nR + l2) - G^2/(n + l2))

over every midpoint between consecutive distinct sorted feature values, and a
leaf's weight is sum(residual) / (count + l2), within [-1, 1] as every
residual is. Ties in gain break toward the lower feature index, then the
lower threshold, so training is fully deterministic; there is no stochastic
component at all.

Every node records its would-be leaf weight, which downstream attribution
uses as the node value for decision-path deltas.

A tree has one form, the node arrays of Tree: training and model_from_json
build them, scoring and attribution walk them, and model_to_json writes the
nested JSON by following their children. Only the root's index (0) is fixed;
the other nodes may be numbered in any order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .features import FeatureTable

FORMAT_VERSION = 1


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True, slots=True)
class GBTConfig:
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    l2: float = 1.0
    min_child_weight: float = 1.0

    def validate(self) -> None:
        if self.n_trees < 0:
            raise ValueError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.0 < self.learning_rate <= 8.0):
            raise ValueError(f"learning_rate must be in (0, 8], got {self.learning_rate}")
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.min_child_weight < 0.0:
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")


@dataclass(frozen=True, slots=True)
class LogisticConfig:
    l2: float = 0.1
    tol: float = 1e-6
    max_epochs: int = 5000

    def validate(self) -> None:
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True, eq=False)
class Tree:
    """One regression tree as node arrays; node 0 is the root.

    Node i tests feature[i]: its left child is children[2*i + 1] and its
    right one children[2*i], so one level step is
    children[2*i + (x < threshold[i])]. A leaf tests feature 0 against +inf
    and both its children are itself, so rows that reached a leaf stay there.
    value[i] is the weight node i would emit as a leaf; depth is the number
    of levels below the root.
    """

    feature: np.ndarray  # intp
    threshold: np.ndarray  # float64
    children: np.ndarray  # intp, two per node
    value: np.ndarray  # float64
    depth: int

    @staticmethod
    def from_nodes(nodes: list[list]) -> "Tree":
        """Tree of [feature, threshold, left, right, value, depth] nodes."""
        feature, threshold, left, right, value, depth = zip(*nodes)
        children = np.empty(2 * len(nodes), dtype=np.intp)
        children[1::2], children[0::2] = left, right
        return Tree(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=np.float64),
            children,
            np.array(value, dtype=np.float64),
            max(depth),
        )

    def levels(self, X: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(node, next node) of every row of X, one pair per tree level.

        A row goes left when x[feature] < threshold, so NaN goes right. Rows
        that reached a leaf have next node equal to node.
        """
        feats, thrs, children = self.feature, self.threshold, self.children
        n, width = X.shape
        if self.depth and not (0 <= feats.min() and feats.max() < width):
            raise ValueError(f"tree splits on a feature outside the {width} columns of X")
        x = X.ravel()
        offsets = np.arange(n) * width
        node = np.zeros(n, dtype=np.intp)
        for _ in range(self.depth):
            nxt = children[2 * node + (x[offsets + feats[node]] < thrs[node])]
            yield node, nxt
            node = nxt

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight reached by each row of X."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _, node in self.levels(X):
            pass
        return self.value[node]


def _value_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's index among its column's distinct sorted values."""
    ranks = np.empty(X.shape, dtype=np.int64)
    for f in range(X.shape[1]):
        ranks[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    return ranks


def _best_split(X: np.ndarray, ranks: np.ndarray, r: np.ndarray, idx: np.ndarray, cfg: GBTConfig):
    """Best (feature, threshold, gain) at a node, or None if no positive gain.

    Candidates are midpoints between consecutive distinct sorted values of
    each feature; all features are searched at once on the node's sorted
    (rows, features) block. The first maximum wins, scanning features
    ascending and thresholds ascending, which fixes all tie-breaks.

    Each column is ordered as a stable sort by value would order it: by
    `_value_ranks`, equal values in node order. Sorting per node (not once
    per ensemble) keeps each prefix sum adding tied values in node order,
    and so keeps the bits of the gains and leaf values.
    """
    if X.shape[1] == 0:
        return None
    n = idx.size
    total = float(r[idx].sum())
    base_term = total * total / (n + cfg.l2)
    # rank * n + position is distinct per row, so an unstable sort of it
    # gives the stable order, faster than a stable sort of the floats
    order = np.argsort(ranks[idx] * n + np.arange(n)[:, None], axis=0)
    xv = np.take_along_axis(X[idx], order, axis=0)
    prefix = np.cumsum(r[idx][order], axis=0)
    n_left = np.arange(1.0, n)[:, None]  # row p - 1 holds the cut after p rows
    n_right = n - n_left
    ok = (
        (xv[1:] > xv[:-1])
        & (n_left >= cfg.min_child_weight)
        & (n_right >= cfg.min_child_weight)
    )
    g_left = prefix[:-1]
    g_right = total - g_left
    gains = 0.5 * (
        g_left * g_left / (n_left + cfg.l2)
        + g_right * g_right / (n_right + cfg.l2)
        - base_term
    )
    gains[~ok] = -np.inf
    cut = np.argmax(gains, axis=0)  # first maximum, so the lowest threshold wins
    col_best = gains[cut, np.arange(gains.shape[1])]
    f = int(np.argmax(col_best))  # first maximum, so the lowest feature wins
    if not col_best[f] > 0.0:
        return None
    p = int(cut[f]) + 1
    threshold = float((xv[p - 1, f] + xv[p, f]) / 2.0)
    return (float(col_best[f]), f, threshold, order[:, f], p)


def _build_node(
    X: np.ndarray, ranks: np.ndarray, r: np.ndarray, idx: np.ndarray, depth: int, cfg: GBTConfig,
    nodes: list[list],
) -> int:
    """Append the node of rows idx, then its subtree, to nodes; return its index.

    A node is [feature, threshold, left, right, value, depth], as
    Tree.from_nodes reads it; a leaf is [0, inf, itself, itself, ...].
    """
    i = len(nodes)
    nodes.append([0, math.inf, i, i, float(r[idx].sum()) / (idx.size + cfg.l2), depth])
    if depth >= cfg.max_depth or idx.size < 2:
        return i
    found = _best_split(X, ranks, r, idx, cfg)
    if found is None:
        return i
    _, f, threshold, order, p = found
    left = _build_node(X, ranks, r, idx[order[:p]], depth + 1, cfg, nodes)
    right = _build_node(X, ranks, r, idx[order[p:]], depth + 1, cfg, nodes)
    nodes[i][:4] = f, threshold, left, right
    return i


# ---------------------------------------------------------------------------
# models


@dataclass
class GBTModel:
    feature_names: tuple[str, ...]
    base_score: float
    learning_rate: float
    trees: tuple[Tree, ...]

    def margin(self, table: FeatureTable) -> np.ndarray:
        X = aligned_rows(self.feature_names, table)
        out = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree.leaf_values(X)
        return out


@dataclass
class LogisticModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float

    def margin(self, table: FeatureTable) -> np.ndarray:
        X = aligned_rows(self.feature_names, table)
        return X @ self.weights + self.bias


Model = GBTModel | LogisticModel


def aligned_rows(feature_names: Sequence[str], table: FeatureTable) -> np.ndarray:
    """Rows reordered into the model's feature order; names must match as sets."""
    names = tuple(feature_names)
    if tuple(table.feature_names) == names:
        return table.rows
    missing = [f for f in names if f not in table.feature_names]
    extra = [f for f in table.feature_names if f not in names]
    if missing or extra:
        raise ValueError(
            f"feature schema mismatch: missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    order = [table.feature_names.index(f) for f in names]
    return table.rows[:, order]


def predict_proba(model: Model, table: FeatureTable) -> np.ndarray:
    """Fraud probability per row, strictly inside (0, 1)."""
    return np.asarray(sigmoid(model.margin(table)))


def _check_training_table(table: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
    if table.labels is None:
        raise ValueError("training requires a labeled feature table")
    if len(table) == 0:
        raise ValueError("training requires at least one row")
    X = table.rows
    if not np.isfinite(X).all():
        raise ValueError("feature table contains non-finite values")
    y = table.labels.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("training requires both classes to be present")
    return X, y


def train_gbt(table: FeatureTable, cfg: GBTConfig | None = None) -> GBTModel:
    """Boosted ensemble; prediction is sigmoid(base + lr * sum of leaf weights)."""
    cfg = cfg or GBTConfig()
    cfg.validate()
    X, y = _check_training_table(table)
    pos = float(y.sum())
    neg = float(y.size - pos)
    base = math.log(pos / neg)
    margin = np.full(y.size, base, dtype=np.float64)
    trees: list[Tree] = []
    all_idx = np.arange(y.size)
    ranks = _value_ranks(X)
    for _ in range(cfg.n_trees):
        p = sigmoid(margin)
        residual = y - p
        nodes: list[list] = []
        _build_node(X, ranks, residual, all_idx, 0, cfg, nodes)
        tree = Tree.from_nodes(nodes)
        margin += cfg.learning_rate * tree.leaf_values(X)
        trees.append(tree)
    return GBTModel(
        feature_names=tuple(table.feature_names),
        base_score=base,
        learning_rate=cfg.learning_rate,
        trees=tuple(trees),
    )


def logistic_loss_and_grad(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 penalty on weights (not bias), and its gradient."""
    n = y.size
    z = X @ weights + bias
    loss = float(np.logaddexp(0.0, z).mean() - (y * z).mean() + 0.5 * l2 * (weights @ weights))
    p = sigmoid(z)
    grad_w = X.T @ (p - y) / n + l2 * weights
    grad_b = float((p - y).mean())
    return loss, grad_w, grad_b


def train_logistic(table: FeatureTable, cfg: LogisticConfig | None = None) -> LogisticModel:
    """Full-batch gradient descent with backtracking line search.

    Stops when the gradient norm falls below tol or max_epochs is reached;
    both the path and the result are deterministic.
    """
    cfg = cfg or LogisticConfig()
    cfg.validate()
    X, y = _check_training_table(table)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    step = 1.0
    loss, gw, gb = logistic_loss_and_grad(w, b, X, y, cfg.l2)
    for _ in range(cfg.max_epochs):
        gnorm_sq = float(gw @ gw + gb * gb)
        if math.sqrt(gnorm_sq) <= cfg.tol:
            break
        while step >= 1e-12:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, gw_new, gb_new = logistic_loss_and_grad(w_new, b_new, X, y, cfg.l2)
            if loss_new <= loss - 1e-4 * step * gnorm_sq:
                w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
                step = min(step * 2.0, 64.0)
                break
            step *= 0.5
        else:
            break  # no productive step length remains
    return LogisticModel(feature_names=tuple(table.feature_names), weights=w, bias=float(b))


# ---------------------------------------------------------------------------
# class imbalance


def undersample(table: FeatureTable, majority_ratio: float = 10.0, seed: int = 0) -> FeatureTable:
    """Keep every minority row and ceil(ratio * minority) majority rows.

    Majority rows are drawn without replacement under the seed; the result
    preserves the original row order. If fewer majority rows exist than the
    ratio asks for, all of them are kept.
    """
    if majority_ratio <= 0.0:
        raise ValueError(f"majority_ratio must be positive, got {majority_ratio}")
    if table.labels is None:
        raise ValueError("undersampling requires labels")
    labels = table.labels
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("undersampling requires both classes to be present")
    minority_label = 1 if n_pos <= n_neg else 0
    minority_idx = np.nonzero(labels == minority_label)[0]
    majority_idx = np.nonzero(labels != minority_label)[0]
    want = math.ceil(majority_ratio * minority_idx.size)
    rng = np.random.default_rng(seed)
    if want >= majority_idx.size:
        chosen = majority_idx
    else:
        chosen = rng.choice(majority_idx, size=want, replace=False)
    keep = np.sort(np.concatenate([minority_idx, chosen]))
    return table.take(keep)


# ---------------------------------------------------------------------------
# serialization


def _node_to_dict(tree: Tree, i: int) -> dict:
    doc = {"value": tree.value.item(i)}
    left, right = tree.children.item(2 * i + 1), tree.children.item(2 * i)
    if right != i:
        doc["feature"] = tree.feature.item(i)
        doc["threshold"] = tree.threshold.item(i)
        doc["left"] = _node_to_dict(tree, left)
        doc["right"] = _node_to_dict(tree, right)
    return doc


def _node_from_dict(doc: dict, depth: int, nodes: list[list]) -> int:
    """Append the node of doc, then its subtree, as _build_node does."""
    i = len(nodes)
    nodes.append([0, math.inf, i, i, float(doc["value"]), depth])
    if "feature" in doc:
        left = _node_from_dict(doc["left"], depth + 1, nodes)
        right = _node_from_dict(doc["right"], depth + 1, nodes)
        nodes[i][:4] = int(doc["feature"]), float(doc["threshold"]), left, right
    return i


def _tree_from_dict(doc: dict) -> Tree:
    nodes: list[list] = []
    _node_from_dict(doc, 0, nodes)
    return Tree.from_nodes(nodes)


def model_to_json(model: Model) -> str:
    if isinstance(model, GBTModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "type": "gbt",
            "feature_names": list(model.feature_names),
            "base_score": model.base_score,
            "learning_rate": model.learning_rate,
            "trees": [_node_to_dict(t, 0) for t in model.trees],
        }
    elif isinstance(model, LogisticModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "type": "logistic",
            "feature_names": list(model.feature_names),
            "weights": [float(v) for v in model.weights],
            "bias": model.bias,
        }
    else:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc, indent=2, sort_keys=True)


def model_from_json(text: str) -> Model:
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    kind = doc.get("type")
    if kind == "gbt":
        names = tuple(doc["feature_names"])
        trees = tuple(_tree_from_dict(d) for d in doc["trees"])
        for t_i, tree in enumerate(trees):
            bad = [f for f in tree.feature.tolist() if not 0 <= f < len(names)]
            if tree.depth and bad:  # a leaf tests feature 0, even without names
                raise ValueError(f"tree {t_i} splits on feature {bad[0]}, outside the {len(names)} names")
        return GBTModel(
            feature_names=names,
            base_score=float(doc["base_score"]),
            learning_rate=float(doc["learning_rate"]),
            trees=trees,
        )
    if kind == "logistic":
        return LogisticModel(
            feature_names=tuple(doc["feature_names"]),
            weights=np.array(doc["weights"], dtype=np.float64),
            bias=float(doc["bias"]),
        )
    raise ValueError(f"unknown model type {kind!r}")


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
