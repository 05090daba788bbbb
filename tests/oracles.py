"""Reference implementations the tests hold the program to.

Each is the plain, one-value-at-a-time form of a vectorized kernel:

- `pearson`: the two-pass Pearson coefficient over `math.fsum` sums, which
  `correlate.correlation_matrix` gives bit for bit for every pair.
- `RunningMoments`: Welford's running centred sums for one window, fed one
  row at a time; `correlate.dynamic_correlation` gives its coefficient bit
  for bit for every window.
- `attribute_prediction`: one row's decision-path attributions, by a walk
  of a tree's node arrays from the root; `explain.attribution_matrix` gives
  them within rounding.

The correlation oracles end in `correlate._coefficient`, so they agree with
the program on the clamp and on which sums give None.
"""
import math

import numpy as np

from timetrail.correlate import _coefficient


def pearson(xs, ys):
    """Population Pearson coefficient via the two-pass centered-sum formula.

    None when fewer than two points or when either series is constant.
    """
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        return None
    if min(xs) == max(xs) or min(ys) == max(ys):
        return None
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((vx - mean_x) ** 2 for vx in xs)
    syy = math.fsum((vy - mean_y) ** 2 for vy in ys)
    sxy = math.fsum((vx - mean_x) * (vy - mean_y) for vx, vy in zip(xs, ys))
    return _coefficient(sxx, syy, sxy)


class RunningMoments:
    """Incremental centered sums for one (x, y) stream, Welford style.

    Exactly-constant input keeps the corresponding m2 at exactly 0.0, so the
    undefined cases match the two-pass route.
    """

    __slots__ = ("n", "mean_x", "mean_y", "m2x", "m2y", "cxy")

    def __init__(self):
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.m2x = 0.0
        self.m2y = 0.0
        self.cxy = 0.0

    def update(self, x, y):
        self.n += 1
        dx = x - self.mean_x
        self.mean_x += dx / self.n
        dy = y - self.mean_y
        self.mean_y += dy / self.n
        # dx is pre-update, the second factors post-update: E[sum] stays exact
        self.m2x += dx * (x - self.mean_x)
        self.m2y += dy * (y - self.mean_y)
        self.cxy += dx * (y - self.mean_y)

    def correlation(self):
        if self.n < 2:
            return None
        return _coefficient(self.m2x, self.m2y, self.cxy)


def window_correlations(x, y, lo, hi):
    """RunningMoments' coefficient of each window [lo[j], hi[j]) of (x, y)."""
    out = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        acc = RunningMoments()
        for i in range(a, b):
            acc.update(float(x[i]), float(y[i]))
        out.append(acc.correlation())
    return out


def attribute_prediction(model, row):
    """One row's per-feature contributions from a root-to-leaf walk of each
    tree's node arrays, in the model's feature order.

    Node i sends the row left (to children[2*i + 1]) when
    row[feature[i]] < threshold[i], else right (to children[2*i]); a leaf's
    two edges lead back to itself. Each edge credits the learning-rate-scaled
    change in node value to the feature its parent tests.
    """
    totals = [0.0] * len(model.feature_names)
    for tree in model.trees:
        i = 0
        while True:
            left, right = int(tree.children[2 * i + 1]), int(tree.children[2 * i])
            if left == right == i:
                break
            f = int(tree.feature[i])
            child = left if float(row[f]) < float(tree.threshold[i]) else right
            totals[f] += model.learning_rate * (float(tree.value[child]) - float(tree.value[i]))
            i = child
    return np.array(totals, dtype=np.float64)
