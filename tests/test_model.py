"""Classifier tests: split search, boosting behavior, logistic fit, sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timetrail.model
from timetrail.features import FeatureTable
from timetrail.model import (
    GBTConfig,
    LogisticConfig,
    LogisticModel,
    aligned_rows,
    feature_major,
    logistic_loss_and_grad,
    model_from_json,
    model_to_json,
    predict_proba,
    sigmoid,
    train_gbt,
    train_logistic,
    undersample,
)


def make_table(X, y=None, names=None):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    ids = tuple(f"t{i:04d}" for i in range(X.shape[0]))
    return FeatureTable(feature_names=tuple(names), rows=X, labels=y, tx_ids=ids)


def log_loss(y, p):
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


# ---------------------------------------------------------------------------
# independent split oracle: naive loops over every midpoint candidate


def oracle_first_split(X, y, cfg):
    """Best (feature, threshold) for the first boosting round, or None.

    Scans features ascending and candidate midpoints ascending; a candidate
    wins only on strictly larger gain, so the earliest optimum is kept.
    """
    r = y - sigmoid(math.log(y.sum() / (y.size - y.sum())))
    n = r.size
    total = r.sum()
    base_term = total * total / (n + cfg.l2)
    best = None
    for f in range(X.shape[1]):
        xs = sorted(set(X[:, f]))
        for lo, hi in zip(xs, xs[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] < thr
            n_left = int(left.sum())
            n_right = n - n_left
            if n_left < cfg.min_child_weight or n_right < cfg.min_child_weight:
                continue
            g_left = r[left].sum()
            g_right = total - g_left
            gain = 0.5 * (
                g_left * g_left / (n_left + cfg.l2)
                + g_right * g_right / (n_right + cfg.l2)
                - base_term
            )
            if gain > 0.0 and (best is None or gain > best[0] + 1e-12):
                best = (gain, f, thr)
    if best is None:
        return None
    return best[1], best[2]


def reference_best_split(X, r, idx, cfg):
    """The per-feature split search, one argsort and cumsum per feature.

    train_gbt's search does all features at once; it must pick the same
    feature, threshold and child order, bit for bit.
    """
    n = idx.size
    total = float(r[idx].sum())
    base_term = total * total / (n + cfg.l2)
    best = None  # (gain, feature, threshold, sorted order, left count)
    for f in range(X.shape[1]):
        xv_all = X[idx, f]
        order = np.argsort(xv_all, kind="stable")
        xv = xv_all[order]
        if xv[0] == xv[-1]:
            continue  # constant feature at this node, no candidates
        rv = r[idx[order]]
        prefix = np.cumsum(rv)
        pos = np.nonzero(xv[1:] > xv[:-1])[0] + 1  # left-side row counts
        n_left = pos.astype(np.float64)
        n_right = n - n_left
        ok = (n_left >= cfg.min_child_weight) & (n_right >= cfg.min_child_weight)
        if not ok.any():
            continue
        pos = pos[ok]
        n_left = n_left[ok]
        n_right = n_right[ok]
        g_left = prefix[pos - 1]
        g_right = total - g_left
        gains = 0.5 * (
            g_left * g_left / (n_left + cfg.l2)
            + g_right * g_right / (n_right + cfg.l2)
            - base_term
        )
        k = int(np.argmax(gains))  # first maximum, so the lowest threshold wins
        if gains[k] > 0.0 and (best is None or gains[k] > best[0]):
            p = int(pos[k])
            threshold = float((xv[p - 1] + xv[p]) / 2.0)
            best = (float(gains[k]), f, threshold, order, p)
    return best


def block_best_split(X, r, idx, cfg):
    """The per-node block search train_gbt used before it kept node layouts:
    all features at once on the node's sorted (rows, features) block, with
    the gain evaluated at every row of the block. Nothing is cached."""
    if X.shape[1] == 0:
        return None
    n = idx.size
    total = float(r[idx].sum())
    base_term = total * total / (n + cfg.l2)
    ranks = np.stack([np.unique(column, return_inverse=True)[1] for column in X[idx].T], axis=1)
    # rank * n + position is distinct per row, so an unstable sort of it
    # gives the stable order
    order = np.argsort(ranks * n + np.arange(n)[:, None], axis=0)
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


def per_node(reference):
    """train_gbt's _best_split made of a reference search of (X, r, idx, cfg)
    that returns the node-relative order of the chosen feature."""

    def search(layouts, r, idx, path, total):
        found = reference(layouts.X, r, idx, layouts.cfg)
        if found is None:
            return None
        gain, f, threshold, order, p = found
        return gain, f, threshold, idx[order], p

    return search


def is_leaf(tree, i):
    return tree.children[2 * i] == i


def walk_features(tree, found):
    internal = tree.children[0::2] != np.arange(tree.value.size)
    found.update(tree.feature[internal].tolist())


# ---------------------------------------------------------------------------
# boosted ensemble


def test_stump_splits_at_midpoint():
    table = make_table([0.0, 1.0, 2.0, 3.0], y=[0, 0, 1, 1])
    cfg = GBTConfig(n_trees=1, max_depth=1, learning_rate=1.0, l2=0.0)
    model = train_gbt(table, cfg)
    tree = model.trees[0]
    left, right = tree.children[1], tree.children[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    assert is_leaf(tree, left) and is_leaf(tree, right)
    assert tree.value[left] < 0.0 < tree.value[right]


def test_zero_trees_predicts_prior():
    y = np.array([0, 0, 0, 1], dtype=np.int64)
    table = make_table(np.arange(4.0), y=y)
    model = train_gbt(table, GBTConfig(n_trees=0))
    assert model.trees == ()
    p = predict_proba(model, table)
    assert np.allclose(p, 0.25, atol=1e-12)
    assert model.base_score == pytest.approx(math.log(1.0 / 3.0))


def test_constant_feature_never_chosen():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 3))
    X[:, 1] = 7.0  # no candidate thresholds exist here
    y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(np.int64)
    model = train_gbt(make_table(X, y=y), GBTConfig(n_trees=20, max_depth=3))
    used: set[int] = set()
    for tree in model.trees:
        walk_features(tree, used)
    assert 1 not in used
    assert used  # something informative was split on


@pytest.mark.parametrize("seed", range(12))
def test_first_split_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 50))
    d = int(rng.integers(1, 4))
    X = np.round(rng.normal(size=(n, d)), 1)  # coarse grid forces value ties
    y = rng.integers(0, 2, size=n).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    cfg = GBTConfig(n_trees=1, max_depth=1)
    model = train_gbt(make_table(X, y=y), cfg)
    tree = model.trees[0]
    expected = oracle_first_split(X, y, cfg)
    if expected is None:
        assert is_leaf(tree, 0)
    else:
        assert (tree.feature[0], tree.threshold[0]) == expected


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("min_child_weight", [1.0, 5.0])
def test_split_search_matches_per_feature_reference(seed, min_child_weight, monkeypatch):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(300, 5)), 1)  # coarse grid forces value ties
    X[:, 2] = 4.0  # constant column, never a candidate
    X[:, 4] = X[:, 0]  # equal gains across features: the lower index must win
    logits = 2.0 * X[:, 0] - X[:, 1] + X[:, 3] * X[:, 1]
    y = (rng.random(300) < sigmoid(logits)).astype(np.int64)
    table = make_table(X, y=y)
    cfg = GBTConfig(n_trees=20, max_depth=4, min_child_weight=min_child_weight)
    fast = model_to_json(train_gbt(table, cfg))
    monkeypatch.setattr(timetrail.model, "_best_split", per_node(reference_best_split))
    assert model_to_json(train_gbt(table, cfg)) == fast


@st.composite
def gbt_problems(draw):
    """A small labeled table with many value ties, and a GBT config."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([2, 5, 40]))  # distinct values per column at most
    X = np.array(draw(st.lists(st.integers(0, grid - 1), min_size=n * d, max_size=n * d)), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    if y.min() == y.max():
        y[draw(st.integers(0, n - 1))] ^= 1  # both classes
    cfg = GBTConfig(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        l2=draw(st.sampled_from([0.0, 0.5, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.5, 7.0])),
    )
    return make_table(X.reshape(n, d) / 4.0, y=y), cfg


@settings(max_examples=150, deadline=None)
@given(gbt_problems())
def test_cached_layouts_match_the_uncached_block_search(problem):
    table, cfg = problem
    cached = model_to_json(train_gbt(table, cfg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timetrail.model, "_best_split", per_node(block_best_split))
        assert model_to_json(train_gbt(table, cfg)) == cached


def test_a_one_root_layout_bound_evicts_every_tree_and_keeps_the_model(monkeypatch):
    rng = np.random.default_rng(2)
    X = np.round(rng.normal(size=(400, 4)), 1)
    y = (rng.random(400) < sigmoid(2.0 * X[:, 0] - X[:, 1] * X[:, 2])).astype(np.int64)
    table, cfg = make_table(X, y=y), GBTConfig(n_trees=15, max_depth=4)
    built = []  # the row count of each layout built
    build = timetrail.model._NodeLayouts._build

    def counted(self, idx):
        built.append(idx.size)
        return build(self, idx)

    monkeypatch.setattr(timetrail.model._NodeLayouts, "_build", counted)
    default = model_to_json(train_gbt(table, cfg))
    assert built.count(400) == 1  # the root, once per ensemble
    monkeypatch.setattr(timetrail.model, "LAYOUT_CACHE_ROOTS", 1)
    assert model_to_json(train_gbt(table, cfg)) == default
    assert built.count(400) == 1 + cfg.n_trees  # and now once per tree


def test_a_column_of_more_than_65535_values_uses_wider_ranks(monkeypatch):
    rng = np.random.default_rng(4)
    n = 70_000
    X = np.stack([rng.permutation(n) / n, rng.integers(0, 3, size=n) / 2.0], axis=1)
    y = (rng.random(n) < sigmoid(4.0 * X[:, 0] - 2.0 + X[:, 1])).astype(np.int64)
    assert timetrail.model._value_ranks(X).dtype == np.uint32
    assert timetrail.model._value_ranks(X[:, 1:]).dtype == np.uint8
    table, cfg = make_table(X, y=y), GBTConfig(n_trees=2, max_depth=2)
    cached = model_to_json(train_gbt(table, cfg))
    monkeypatch.setattr(timetrail.model, "_best_split", per_node(block_best_split))
    assert model_to_json(train_gbt(table, cfg)) == cached


def test_a_table_without_features_grows_leaves_only():
    y = np.array([0, 1, 1, 0, 0, 0], dtype=np.int64)
    table = make_table(np.empty((6, 0)), y=y)
    model = train_gbt(table, GBTConfig(n_trees=3))
    assert all(tree.depth == 0 for tree in model.trees)
    assert np.allclose(predict_proba(model, table), 2.0 / 6.0, atol=0.05)


def test_training_loss_is_monotone():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 4))
    logits = 1.5 * X[:, 0] - X[:, 2] + 0.3 * rng.normal(size=200)
    y = (rng.random(200) < sigmoid(logits)).astype(np.int64)
    table = make_table(X, y=y)
    cfg = GBTConfig(n_trees=30, max_depth=3)
    model = train_gbt(table, cfg)
    # replay the ensemble one tree at a time
    margin = np.full(len(table), model.base_score)
    losses = [log_loss(y, sigmoid(margin))]
    for tree in model.trees:
        margin = margin + model.learning_rate * tree.leaf_values(feature_major(table.rows))
        losses.append(log_loss(y, sigmoid(margin)))
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-12
    assert losses[-1] < losses[0]


def test_deep_tree_fits_conjunction():
    # y = x0 AND x1 needs an interaction, so depth 1 alone cannot fit it
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8)
    y = (X[:, 0] * X[:, 1] > 0).astype(np.int64)
    table = make_table(X, y=y)
    shallow = train_gbt(table, GBTConfig(n_trees=60, max_depth=1, learning_rate=0.3))
    deep = train_gbt(table, GBTConfig(n_trees=60, max_depth=2, learning_rate=0.3))
    assert ((predict_proba(deep, table) >= 0.5) == y).all()
    assert log_loss(y, predict_proba(deep, table)) < log_loss(y, predict_proba(shallow, table))


def test_zero_gain_symmetry_stops_splitting():
    # xor residuals cancel on both axes, so no root split clears the gain bar
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8)
    y = (X[:, 0] != X[:, 1]).astype(np.int64)
    model = train_gbt(make_table(X, y=y), GBTConfig(n_trees=3, max_depth=2))
    assert all(is_leaf(t, 0) for t in model.trees)


def test_gbt_determinism():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 3))
    y = rng.integers(0, 2, size=80).astype(np.int64)
    y[0], y[1] = 0, 1
    table = make_table(X, y=y)
    a = train_gbt(table, GBTConfig(n_trees=10))
    b = train_gbt(table, GBTConfig(n_trees=10))
    assert model_to_json(a) == model_to_json(b)


# ---------------------------------------------------------------------------
# logistic baseline


def test_logistic_without_features_learns_prior_log_odds():
    y = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=np.int64)
    table = make_table(np.empty((8, 0)), y=y)
    model = train_logistic(table, LogisticConfig(l2=0.0))
    assert model.weights.shape == (0,)
    assert model.bias == pytest.approx(math.log(5.0 / 3.0), abs=1e-5)


def test_logistic_separates_blobs():
    rng = np.random.default_rng(9)
    a = rng.normal(loc=-3.0, size=(60, 2))
    b = rng.normal(loc=3.0, size=(60, 2))
    X = np.vstack([a, b])
    y = np.array([0] * 60 + [1] * 60, dtype=np.int64)
    table = make_table(X, y=y)
    model = train_logistic(table, LogisticConfig(l2=1e-4))
    preds = predict_proba(model, table) >= 0.5
    assert (preds == y).all()


@pytest.mark.parametrize("seed", range(6))
def test_logistic_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    n, d = 24, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    w = rng.normal(size=d)
    b = float(rng.normal())
    l2 = 0.3
    _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2)
    eps = 1e-6
    for j in range(d):
        step = np.zeros(d)
        step[j] = eps
        hi, _, _ = logistic_loss_and_grad(w + step, b, X, y, l2)
        lo, _, _ = logistic_loss_and_grad(w - step, b, X, y, l2)
        num = (hi - lo) / (2 * eps)
        assert abs(num - gw[j]) <= 1e-5 * max(1.0, abs(num))
    hi, _, _ = logistic_loss_and_grad(w, b + eps, X, y, l2)
    lo, _, _ = logistic_loss_and_grad(w, b - eps, X, y, l2)
    assert abs((hi - lo) / (2 * eps) - gb) <= 1e-5


def test_l2_shrinks_weights():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    table = make_table(X, y=y)
    loose = train_logistic(table, LogisticConfig(l2=1e-6))
    tight = train_logistic(table, LogisticConfig(l2=10.0))
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


# ---------------------------------------------------------------------------
# schema alignment and validation


def test_permuted_schema_is_rejected():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50).astype(np.int64)
    y[:2] = [0, 1]
    table = make_table(X, y=y, names=("a", "b", "c"))
    shuffled = make_table(X[:, [2, 0, 1]], y=y, names=("c", "a", "b"))
    for model in (train_gbt(table, GBTConfig(n_trees=5)), train_logistic(table, LogisticConfig())):
        with pytest.raises(ValueError, match="feature schema mismatch"):
            predict_proba(model, shuffled)


def test_schema_mismatch_is_rejected():
    table = make_table(np.zeros((3, 2)), names=("a", "b"))
    with pytest.raises(ValueError, match="feature schema mismatch"):
        aligned_rows(("a", "z"), table)


@pytest.mark.parametrize(
    "X,y,message",
    [
        (np.zeros((0, 1)), np.zeros(0, dtype=np.int64), "at least one row"),
        (np.zeros((3, 1)), np.array([1, 1, 1]), "both classes"),
        (np.array([[np.inf], [0.0]]), np.array([0, 1]), "non-finite"),
    ],
)
def test_training_table_validation(X, y, message):
    table = make_table(X, y=y)
    with pytest.raises(ValueError, match=message):
        train_gbt(table)
    with pytest.raises(ValueError, match=message):
        train_logistic(table)


def test_unlabeled_table_cannot_train():
    table = make_table(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="label"):
        train_gbt(table)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_trees": -1},
        {"max_depth": 0},
        {"learning_rate": 0.0},
        {"l2": -0.5},
    ],
)
def test_gbt_config_validation(kwargs):
    with pytest.raises(ValueError):
        GBTConfig(**kwargs).validate()


@pytest.mark.parametrize("kwargs", [{"l2": -1.0}, {"tol": 0.0}, {"max_epochs": 0}])
def test_logistic_config_validation(kwargs):
    with pytest.raises(ValueError):
        LogisticConfig(**kwargs).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, field",
    [
        (GBTConfig, "learning_rate"),
        (GBTConfig, "l2"),
        (GBTConfig, "min_child_weight"),
        (LogisticConfig, "l2"),
        (LogisticConfig, "tol"),
    ],
)
def test_config_rejects_non_finite_floats_by_name(cls, field, value):
    # NaN fails every comparison, so an unguarded `x < 0` check lets it through
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**{field: value}).validate()


# ---------------------------------------------------------------------------
# serialization


def test_gbt_json_round_trip_is_exact():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 2, size=60).astype(np.int64)
    y[:2] = [0, 1]
    table = make_table(X, y=y)
    model = train_gbt(table, GBTConfig(n_trees=8))
    text = model_to_json(model)
    back = model_from_json(text)
    assert np.array_equal(model.margin(table), back.margin(table))
    assert model_to_json(back) == text  # stable bytes through a full cycle


def test_logistic_json_round_trip():
    model = LogisticModel(feature_names=("a", "b"), weights=np.array([0.5, -1.25]), bias=0.125)
    back = model_from_json(model_to_json(model))
    assert isinstance(back, LogisticModel)
    assert back.feature_names == ("a", "b")
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias


def test_model_json_rejects_unknown_type():
    doc = {"format_version": json.loads(model_to_json(LogisticModel(("a",), np.zeros(1), 0.0)))["format_version"]}
    doc["type"] = "forest"
    with pytest.raises(ValueError, match="unknown model type"):
        model_from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        model_from_json(json.dumps({"format_version": "0", "type": "gbt"}))


# ---------------------------------------------------------------------------
# undersampling


def test_undersample_exact_counts():
    y = np.array([1] * 10 + [0] * 1000, dtype=np.int64)
    table = make_table(np.arange(1010.0), y=y)
    out = undersample(table, majority_ratio=5.0, seed=0)
    assert len(out) == 60
    assert int(out.labels.sum()) == 10  # every minority row survives


def test_undersample_preserves_row_order():
    y = np.array([0, 1, 0, 0, 1, 0, 0, 0], dtype=np.int64)
    table = make_table(np.arange(8.0), y=y)
    out = undersample(table, majority_ratio=2.0, seed=1)
    positions = [int(v) for v in out.rows[:, 0]]
    assert positions == sorted(positions)
    assert out.tx_ids == tuple(f"t{p:04d}" for p in positions)


def test_undersample_is_deterministic():
    y = np.array([1] * 20 + [0] * 400, dtype=np.int64)
    table = make_table(np.arange(420.0), y=y)
    a = undersample(table, majority_ratio=3.0, seed=42)
    b = undersample(table, majority_ratio=3.0, seed=42)
    c = undersample(table, majority_ratio=3.0, seed=43)
    assert a.tx_ids == b.tx_ids
    assert a.tx_ids != c.tx_ids


def test_undersample_saturates_when_majority_is_scarce():
    y = np.array([1] * 6 + [0] * 9, dtype=np.int64)
    table = make_table(np.arange(15.0), y=y)
    out = undersample(table, majority_ratio=10.0, seed=0)
    assert len(out) == 15  # fewer majority rows than requested, keep them all


def test_undersample_validation():
    table = make_table(np.arange(4.0), y=np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError, match="both classes"):
        undersample(table)
    with pytest.raises(ValueError, match="positive"):
        undersample(make_table(np.arange(2.0), y=np.array([0, 1])), majority_ratio=0.0)
    with pytest.raises(ValueError, match="label"):
        undersample(make_table(np.arange(2.0)))


@settings(max_examples=60)
@given(
    n_min=st.integers(1, 20),
    n_maj=st.integers(1, 200),
    ratio=st.floats(0.5, 20.0, allow_nan=False),
    seed=st.integers(0, 2**20),
)
def test_undersample_count_property(n_min, n_maj, ratio, seed):
    # build with the minority as the positive class
    if n_min > n_maj:
        n_min, n_maj = n_maj, n_min
    y = np.array([1] * n_min + [0] * n_maj, dtype=np.int64)
    table = make_table(np.arange(float(n_min + n_maj)), y=y)
    out = undersample(table, majority_ratio=ratio, seed=seed)
    kept_majority = len(out) - n_min
    assert int(out.labels.sum()) == n_min
    assert kept_majority == min(n_maj, math.ceil(ratio * n_min))
