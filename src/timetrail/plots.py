"""Plot-data exporters and deterministic SVG renderings.

Every figure exists first as plain data, rows of a table or a JSON
document, so downstream tooling never has to scrape pixels; the one CSV
writer, ``data.rows_to_csv``, makes every CSV, and the SVG renderings are
built from the same data with fixed float formatting, so identical inputs
yield identical bytes. Undefined correlation cells serialize as empty CSV
fields / JSON null and render as hatched cells; a heatmap value that is
neither null nor a number in [-1, 1], or a non-finite number in an
explanation, is refused. The flagged-frequency series always carries the
true fraud count of each window, so it needs a labeled split; the TIS
histogram has ten uniform bins over [0, 1].
"""
from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from .data import rows_to_csv

# Diverging scale anchors: -1 cold, 0 neutral, +1 hot.
_COLD = (33, 102, 172)
_NEUTRAL = (247, 247, 247)
_HOT = (178, 24, 43)


def _lerp_color(a: tuple, b: tuple, t: float) -> str:
    channels = (round(a[i] + (b[i] - a[i]) * t) for i in range(3))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def diverging_color(value: float) -> str:
    v = max(-1.0, min(1.0, value))
    if v < 0.0:
        return _lerp_color(_NEUTRAL, _COLD, -v)
    return _lerp_color(_NEUTRAL, _HOT, v)


def _svg(width: int, height: int, body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">{body}</svg>\n'
    )


_HATCH_DEF = (
    '<defs><pattern id="undef" width="6" height="6" patternUnits="userSpaceOnUse">'
    '<rect width="6" height="6" fill="#e8e8e8"/>'
    '<path d="M0,6 L6,0" stroke="#9a9a9a" stroke-width="1"/>'
    "</pattern></defs>"
)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# correlation coefficients and the heatmap

COEFFICIENT_HEADER = ("attr_a", "attr_b", "window_start", "window_end", "coefficient")


def heatmap_to_csv(m: dict) -> str:
    """The heatmap document in long form, one row per ordered cell."""
    window = m["window"] or {"start": "", "end": ""}
    attrs = m["attributes"]
    return rows_to_csv(
        COEFFICIENT_HEADER,
        (
            (a, b, window["start"], window["end"], m["values"][i][j])
            for i, a in enumerate(attrs)
            for j, b in enumerate(attrs)
        ),
    )


def heatmap_to_json(m: dict) -> str:
    return json.dumps(m, indent=2, sort_keys=True)


def heatmap_to_svg(m: dict) -> str:
    """The heatmap document as one rect per cell; the margin carries row and
    column labels."""
    attrs, values = m["attributes"], m["values"]
    cell = 34
    left = 10 + max((len(l) for l in attrs), default=0) * 7
    top = 112
    k = len(attrs)
    width = left + k * cell + 20
    height = top + k * cell + 20
    parts = [_HATCH_DEF]
    for j, label in enumerate(attrs):
        x = left + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{top - 8}" font-size="11" text-anchor="start" '
            f'transform="rotate(-60 {x} {top - 8})" font-family="monospace">{_esc(label)}</text>'
        )
    for i, label in enumerate(attrs):
        y = top + i * cell + cell // 2 + 4
        parts.append(
            f'<text x="{left - 6}" y="{y}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{_esc(label)}</text>'
        )
        for j in range(k):
            v = values[i][j]
            if v is not None and (type(v) not in (int, float) or not -1.0 <= v <= 1.0):
                cell_name = f"{attrs[i]} / {attrs[j]}"
                raise ValueError(f"heatmap value of {cell_name} is {v!r}, not a number in [-1, 1]")
            x = left + j * cell
            y0 = top + i * cell
            fill_attr = "url(#undef)" if v is None else diverging_color(v)
            title = "undefined" if v is None else f"{v:.4f}"
            parts.append(
                f'<rect x="{x}" y="{y0}" width="{cell}" height="{cell}" fill="{fill_attr}" '
                f'stroke="#ffffff" stroke-width="1"><title>{_esc(attrs[i])} / '
                f"{_esc(attrs[j])}: {title}</title></rect>"
            )
            if v is not None:
                tx = x + cell // 2
                ty = y0 + cell // 2 + 3
                parts.append(
                    f'<text x="{tx}" y="{ty}" font-size="8" text-anchor="middle" '
                    f'font-family="monospace">{v:.2f}</text>'
                )
    return _svg(width, height, "".join(parts))


# ---------------------------------------------------------------------------
# flagged-transaction frequency series


def flagged_frequency_series(
    timestamps: np.ndarray, flags: np.ndarray, labels: np.ndarray, window_seconds: int
) -> list[tuple[int, int, int]]:
    """(window_start, flagged_count, fraud_count) per tumbling window over the
    rows' full time range: flagged rows have flag 1, true fraud label 1.

    Interior windows with no flags still appear, so a flagless period is an
    all-zero series rather than a gap. window_seconds is positive, as
    CorrelationConfig requires.
    """
    ts, flags, labels = (np.asarray(a, dtype=np.int64) for a in (timestamps, flags, labels))
    if not ts.size == flags.size == labels.size:
        raise ValueError("timestamps, flags and labels must have one entry per row")
    if not ts.size:
        return []
    t_min = int(ts.min())
    window = (ts - t_min) // window_seconds
    n_windows = int(window.max()) + 1
    starts = (t_min + window_seconds * np.arange(n_windows)).tolist()
    counts, fraud = (
        np.bincount(window[v == 1], minlength=n_windows).tolist() for v in (flags, labels)
    )
    return list(zip(starts, counts, fraud))


def series_to_svg(rows: list[tuple[int, int, int]], window_seconds: int) -> str:
    """Flagged counts as a polyline; windows holding true fraud get red dots."""
    width, height = 640, 220
    pad_l, pad_r, pad_t, pad_b = 48, 12, 14, 26
    n = len(rows)
    parts = []
    if n == 0:
        parts.append(
            f'<text x="{width // 2}" y="{height // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">no data</text>'
        )
        return _svg(width, height, "".join(parts))
    max_count = max(max(c for _, c, _ in rows), 1)
    span_x = width - pad_l - pad_r
    span_y = height - pad_t - pad_b

    def x_of(i: int) -> float:
        return pad_l + (span_x * i / max(n - 1, 1))

    def y_of(c: int) -> float:
        return pad_t + span_y * (1.0 - c / max_count)

    coords = " ".join(f"{x_of(i):.2f},{y_of(c):.2f}" for i, (_, c, _) in enumerate(rows))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#2166ac" stroke-width="1.5"/>'
    )
    for i, (_, c, fc) in enumerate(rows):
        if fc > 0:
            parts.append(
                f'<circle cx="{x_of(i):.2f}" cy="{y_of(c):.2f}" r="3" '
                f'fill="#b2182b"><title>{fc} fraud</title></circle>'
            )
    parts.append(
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{pad_t + 4}" text-anchor="end" font-size="10" '
        f'font-family="monospace">{max_count}</text>'
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{height - pad_b + 4}" text-anchor="end" font-size="10" '
        f'font-family="monospace">0</text>'
    )
    parts.append(
        f'<text x="{pad_l}" y="{height - 8}" font-size="10" font-family="monospace">'
        f"window={window_seconds}s, {n} windows</text>"
    )
    return _svg(width, height, "".join(parts))


# ---------------------------------------------------------------------------
# decision-path sequence diagram


def render_sequence(seq: dict) -> str:
    """An explanation document's n splits as n+1 nodes: bias, then one per step."""
    numbers = [(key, seq[key]) for key in ("bias", "margin", "probability")]
    for k, s in enumerate(seq["steps"]):
        numbers += [(f"step {k} {key}", s[key]) for key in ("threshold", "delta")]
    for name, v in numbers:
        if not math.isfinite(v):
            raise ValueError(f"sequence {name} is {v!r}, not a finite number")
    row_h = 26
    width = 560
    n = len(seq["steps"])
    height = 20 + (n + 1) * row_h + 30
    parts = []

    def node(y: int, text: str, fill: str) -> str:
        return (
            f'<rect x="16" y="{y}" width="{width - 32}" height="{row_h - 6}" rx="4" '
            f'fill="{fill}" stroke="#888888" stroke-width="0.8"/>'
            f'<text x="24" y="{y + 14}" font-size="11" font-family="monospace">{_esc(text)}</text>'
        )

    parts.append(node(10, f"bias = {seq['bias']:+.6f}", "#f0f0f0"))
    y = 10 + row_h
    for s in seq["steps"]:
        op = "<" if s["branch"] == "left" else ">="
        text = f"t{s['tree']}: {s['feature']} {op} {s['threshold']:.6g}  delta {s['delta']:+.6f}"
        fill = "#fbe4e1" if s["delta"] > 0 else "#e2ecf6" if s["delta"] < 0 else "#f0f0f0"
        parts.append(node(y, text, fill))
        parts.append(
            f'<line x1="{width // 2}" y1="{y - 6}" x2="{width // 2}" y2="{y}" '
            f'stroke="#888888" stroke-width="0.8"/>'
        )
        y += row_h
    parts.append(
        f'<text x="16" y="{y + 16}" font-size="11" font-family="monospace">'
        f"{_esc(seq['tx_id'])}: margin {seq['margin']:+.6f}, p = {seq['probability']:.6f}</text>"
    )
    return _svg(width, height, "".join(parts))


# ---------------------------------------------------------------------------
# TIS histogram


def tis_histogram(values: Iterable[float]) -> list[tuple[float, float, int]]:
    """(bin_start, bin_end, count) of ten uniform bins of TIS values over
    [0, 1]; the last bin is closed so 1.0 lands inside."""
    counts = [0] * 10
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"tis value {v} outside [0, 1]")
        counts[min(int(v * 10), 9)] += 1
    return [(i / 10, (i + 1) / 10, c) for i, c in enumerate(counts)]


def histogram_to_svg(rows: list[tuple[float, float, int]]) -> str:
    width, height = 420, 200
    pad_l, pad_b, pad_t = 40, 24, 12
    bins = len(rows)
    max_c = max(max(c for _, _, c in rows), 1)
    bar_w = (width - pad_l - 12) / bins
    parts = []
    for i, (lo, hi, c) in enumerate(rows):
        h = (height - pad_t - pad_b) * c / max_c
        x = pad_l + i * bar_w
        y = height - pad_b - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w - 2:.2f}" height="{h:.2f}" '
            f'fill="#2166ac"><title>[{lo:.2f}, {hi:.2f}'
            f"{']' if i == bins - 1 else ')'}: {c}</title></rect>"
        )
    parts.append(
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - 8}" y2="{height - pad_b}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad_l - 4}" y="{pad_t + 4}" text-anchor="end" font-size="10" '
        f'font-family="monospace">{max_c}</text>'
    )
    parts.append(
        f'<text x="{pad_l}" y="{height - 6}" font-size="10" font-family="monospace">0.0</text>'
    )
    parts.append(
        f'<text x="{width - 8}" y="{height - 6}" text-anchor="end" font-size="10" '
        f'font-family="monospace">1.0</text>'
    )
    return _svg(width, height, "".join(parts))
