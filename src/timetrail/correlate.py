"""Pearson correlation between temporal attributes, static and windowed.

Two computation routes exist on purpose: `pearson` is the definitional
two-pass formula over centered sums (`correlation_matrix` gives its bits for
every pair at once), while `RunningMoments` accumulates the same centered
sums incrementally (Welford updates) and defines the sliding windows of
`dynamic_correlation`. That function updates all windows of a pair together,
one numpy lane per window, with `RunningMoments.update`'s operations in its
order, so every coefficient keeps the bits a per-window loop gives. Constant
series, or fewer than two points, make the coefficient undefined (None),
never NaN or a silent 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .enrich import ATTRIBUTE_NAMES, EnrichedTable


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Population Pearson coefficient via the two-pass centered-sum formula.

    Returns None when fewer than two points or when either series is
    constant. The result is clamped into [-1, 1].
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


def _coefficient(sxx: float, syy: float, sxy: float) -> float | None:
    """sxy / sqrt(sxx * syy) clamped into [-1, 1], or None when undefined.

    Shared by every route, so they agree on the denominator, the clamp and
    which degenerate sums give None.
    """
    if sxx <= 0.0 or syy <= 0.0:
        return None
    # single sqrt keeps clean cases exact; the product can under/overflow for
    # extreme magnitudes even when both factors are positive, so fall back to
    # the two-sqrt form there
    prod = sxx * syy
    denom = math.sqrt(prod) if 0.0 < prod < math.inf else math.sqrt(sxx) * math.sqrt(syy)
    if denom <= 0.0 or not math.isfinite(denom):
        return None
    r = sxy / denom
    if not math.isfinite(r):
        return None
    return max(-1.0, min(1.0, r))


class RunningMoments:
    """Incremental centered sums for one (x, y) stream, Welford style.

    Accumulates counts, means, and the centered second moments m2x, m2y, cxy;
    exactly-constant input keeps the corresponding m2 at exactly 0.0, so the
    undefined cases match the two-pass route.
    """

    __slots__ = ("n", "mean_x", "mean_y", "m2x", "m2y", "cxy")

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.m2x = 0.0
        self.m2y = 0.0
        self.cxy = 0.0

    def update(self, x: float, y: float) -> None:
        self.n += 1
        dx = x - self.mean_x
        self.mean_x += dx / self.n
        dy = y - self.mean_y
        self.mean_y += dy / self.n
        # dx is pre-update, the second factors post-update: E[sum] stays exact
        self.m2x += dx * (x - self.mean_x)
        self.m2y += dy * (y - self.mean_y)
        self.cxy += dx * (y - self.mean_y)

    def correlation(self) -> float | None:
        if self.n < 2:
            return None
        return _coefficient(self.m2x, self.m2y, self.cxy)


@dataclass(frozen=True)
class DynamicCorrelationSeries:
    pair: tuple[str, str]
    window_seconds: int
    stride_seconds: int
    points: tuple[tuple[int, float | None], ...]  # (window_start, coefficient)


def dynamic_correlation(
    rows: EnrichedTable,
    pair: tuple[str, str],
    window_seconds: int,
    stride_seconds: int | None = None,
) -> DynamicCorrelationSeries:
    """Windowed correlation of two attributes over time-sorted rows.

    Window k covers [t_min + k*stride, t_min + k*stride + window); one point
    per window position until t_max is passed. Rows inside each window feed
    the incremental accumulator in timestamp order.
    """
    stride = window_seconds if stride_seconds is None else stride_seconds
    if stride <= 0 or window_seconds <= 0:
        raise ValueError("window and stride must be positive")
    if stride > window_seconds:
        raise ValueError(
            f"stride {stride} larger than window {window_seconds} would skip rows"
        )
    x, y = (rows.column(name) for name in pair)
    if not len(rows):
        return DynamicCorrelationSeries(pair, window_seconds, stride, ())

    ts = rows.timestamp
    if (np.diff(ts) < 0).any():
        raise ValueError("rows must be sorted by timestamp")
    starts = np.arange(ts[0], ts[-1] + 1, stride)
    coefficients = _window_correlations(
        x, y, np.searchsorted(ts, starts), np.searchsorted(ts, starts + window_seconds)
    )
    points = tuple(zip(starts.tolist(), coefficients))
    return DynamicCorrelationSeries(pair, window_seconds, stride, points)


# Below this many unfinished windows, the windows' own RunningMoments.update
# loops are faster than lane steps: a step costs about 10 us whatever the lane
# count (numpy call overhead), an update about 0.4 us, so the two meet near
# 25 lanes (measured on a 2-core Xeon, Python 3.11, numpy 2.4).
_MIN_LANES = 32


def _window_correlations(
    x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> list[float | None]:
    """RunningMoments.correlation() of each window [lo[j], hi[j]) of (x, y),
    bit for bit as if the window's rows were fed to RunningMoments.update in
    order.

    Each window is a lane of float64 arrays. Lanes are sorted longest first,
    so the lanes still taking rows are always a prefix; step k feeds row
    lo + k to each of them, with the operations of RunningMoments.update in
    its order (numpy's float64 + - * / round as Python floats do). When
    fewer than _MIN_LANES lanes are left, each one's own
    RunningMoments.update loop finishes it from the lane state.
    """
    order = np.argsort(lo - hi, kind="stable")  # longest first
    first, length = lo[order], (hi - lo)[order]
    xy = np.column_stack((x, y))
    # per lane (mean_x, mean_y) and (m2x, m2y)
    mean, m2 = np.zeros((2, order.size, 2))
    cxy = np.zeros(order.size)
    row = first.copy()  # the next row of each lane
    active, width = order.size, -1
    k = 0
    while True:
        while active and length[active - 1] <= k:
            active -= 1
        if active < _MIN_LANES:
            break
        if width != active:
            width = active
            lane_row, lane_mean, lane_m2, lane_cxy = (
                row[:width], mean[:width], m2[:width], cxy[:width]
            )
        v = np.take(xy, lane_row, axis=0)
        lane_row += 1
        d = v - lane_mean
        lane_mean += d / float(k + 1)
        r = v - lane_mean  # post-update, as in RunningMoments.update
        lane_m2 += d * r
        lane_cxy += d[:, 0] * r[:, 1]
        k += 1

    out: list[float | None] = [None] * order.size
    lanes = zip(order.tolist(), first.tolist(), length.tolist(), *mean.T.tolist(),
                *m2.T.tolist(), cxy.tolist())
    for window, start, size, *state in lanes:
        if size > k:  # unfinished: its own update loop takes the rest
            acc = RunningMoments()
            acc.n = k
            acc.mean_x, acc.mean_y, acc.m2x, acc.m2y, acc.cxy = state
            rest = slice(start + k, start + size)
            for xi, yi in zip(x[rest].tolist(), y[rest].tolist()):
                acc.update(xi, yi)
            out[window] = acc.correlation()
        elif size >= 2:  # finished in the lanes; as RunningMoments.correlation
            out[window] = _coefficient(*state[2:])
    return out


def correlation_matrix(rows: EnrichedTable, attributes: Sequence[str] | None = None) -> dict:
    """The heatmap document `{"attributes", "window", "values"}` of the rows:
    pairwise two-pass Pearson, equal to `pearson` bit for bit. The window
    `{"start", "end"}` holds the first and last row's timestamps (None for no
    rows); values[i][j] is None where undefined.

    Each series' mean, centred deviations and fsum of squared deviations are
    computed once; a cell then needs only the fsum of the deviation products.
    The squares use `**` as `pearson` does: libm pow and a plain product
    round differently on some doubles. The upper triangle is computed and
    mirrored, so symmetry is exact; the diagonal is 1.0 unless the attribute
    is constant (then undefined).
    """
    attrs = tuple(attributes) if attributes is not None else ATTRIBUTE_NAMES
    k = len(attrs)
    # (centred column, fsum of its squares), or None: constant or under two rows
    centred: list[tuple[np.ndarray, float] | None] = []
    for a in attrs:
        col = rows.column(a)
        values = col.tolist()
        if len(values) < 2 or min(values) == max(values):
            centred.append(None)
            continue
        d = col - math.fsum(values) / len(values)
        centred.append((d, math.fsum([v**2 for v in d.tolist()])))
    grid: list[list[float | None]] = [[None] * k for _ in range(k)]
    for i, ci in enumerate(centred):
        if ci is None:
            continue
        grid[i][i] = 1.0
        for j in range(i + 1, k):
            cj = centred[j]
            if cj is not None:
                sxy = math.fsum((ci[0] * cj[0]).tolist())
                grid[i][j] = grid[j][i] = _coefficient(ci[1], cj[1], sxy)
    window = None
    if len(rows):
        window = {"start": int(rows.timestamp[0]), "end": int(rows.timestamp[-1])}
    return {"attributes": list(attrs), "window": window, "values": grid}
