"""Pearson correlation between temporal attributes, static and windowed.

`correlation_matrix` correlates every pair of attributes over all rows by the
definitional two-pass formula over centred sums. `dynamic_correlation`
correlates one pair in sliding windows: each window's rows are fed in order
to Welford's running update of the centred sums (Welford, *Technometrics*
1962), and `_window_correlations` updates all windows of a pair together,
one numpy lane per window, until the last lane has taken its last row. Both
routes end in `_coefficient`, so they agree on the clamp and on which sums
are undefined: a constant series, or fewer than two points, gives None,
never NaN or a silent 0.

The reference implementations both routes are tested against, a two-pass
`pearson` and a per-window Welford loop, live in `tests/oracles.py`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .enrich import EnrichedTable


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


def check_window(window_seconds: int, stride_seconds: int) -> None:
    """Refuse a window or stride that is not positive, or a stride that would
    skip rows between windows."""
    if stride_seconds <= 0 or window_seconds <= 0:
        raise ValueError("window and stride must be positive")
    if stride_seconds > window_seconds:
        raise ValueError(
            f"stride {stride_seconds} larger than window {window_seconds} would skip rows"
        )


@dataclass(frozen=True)
class DynamicCorrelationSeries:
    points: tuple[tuple[int, float | None], ...]  # (window_start, coefficient)


def dynamic_correlation(
    rows: EnrichedTable, pair: tuple[str, str], window_seconds: int, stride_seconds: int
) -> DynamicCorrelationSeries:
    """Windowed correlation of two attributes over time-sorted rows.

    Window k covers [t_min + k*stride, t_min + k*stride + window); one point
    per window position until t_max is passed. Each window's rows are taken
    in timestamp order.
    """
    check_window(window_seconds, stride_seconds)
    x, y = (rows.column(name) for name in pair)
    if not len(rows):
        return DynamicCorrelationSeries(())

    ts = rows.timestamp
    if (np.diff(ts) < 0).any():
        raise ValueError("rows must be sorted by timestamp")
    starts = np.arange(ts[0], ts[-1] + 1, stride_seconds)
    # ts - window >= start ends a window; start + window could wrap in int64
    coefficients = _window_correlations(
        x, y, np.searchsorted(ts, starts), np.searchsorted(ts - window_seconds, starts)
    )
    return DynamicCorrelationSeries(tuple(zip(starts.tolist(), coefficients)))


def _window_correlations(
    x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> list[float | None]:
    """The coefficient of each window [lo[j], hi[j]) of (x, y), its rows fed in
    order to Welford's update; None for a window of under two rows.

    Each window is a lane of float64 arrays. Lanes are sorted longest first,
    so the lanes still taking rows are always a prefix; step k feeds row
    lo + k to each of them. With n = k + 1, a lane's update is
    d = v - mean; mean += d / n; r = v - mean (post-update);
    m2 += d * r; cxy += d_x * r_y. numpy's float64 + - * / round as Python
    floats do, so every coefficient has the bits of a per-window loop. The
    prefix views are sliced again only when the number of lanes changes.
    """
    order = np.argsort(lo - hi, kind="stable")  # longest first
    length = (hi - lo)[order]
    xy = np.column_stack((x, y))
    # per lane (mean_x, mean_y) and (m2x, m2y)
    mean, m2 = np.zeros((2, order.size, 2))
    cxy = np.zeros(order.size)
    row = lo[order]  # the next row of each lane
    active, width = order.size, -1
    k = 0
    while True:
        while active and length[active - 1] <= k:
            active -= 1
        if not active:
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
        r = v - lane_mean
        lane_m2 += d * r
        lane_cxy += d[:, 0] * r[:, 1]
        k += 1

    # back in window order: (rows, m2x, m2y, cxy) of each window
    state = np.empty((order.size, 4))
    state[order] = np.column_stack((length, m2, cxy))
    return [_coefficient(*sums) if n >= 2 else None for n, *sums in state.tolist()]


def correlation_matrix(rows: EnrichedTable, attributes: Sequence[str]) -> dict:
    """The heatmap document `{"attributes", "window", "values"}` of the rows:
    pairwise two-pass Pearson, bit for bit the coefficient of the two-pass
    formula over `math.fsum` sums (`tests/oracles.py`'s `pearson`). The window
    `{"start", "end"}` holds the first and last row's timestamps (None for no
    rows); values[i][j] is None where undefined.

    Each series' mean, centred deviations and fsum of squared deviations are
    computed once; a cell then needs only the fsum of the deviation products.
    The squares use `**` as that formula does: libm pow and a plain product
    round differently on some doubles. The upper triangle is computed and
    mirrored, so symmetry is exact; the diagonal is 1.0 unless the attribute
    is constant (then undefined).
    """
    attrs = tuple(attributes)
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
