"""Plot-data exporter tests.

SVG output is checked structurally (parseable XML, element counts, markers
for undefined cells) and for byte determinism, never pixel by pixel.
"""

import json
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timetrail.data import rows_to_csv
from timetrail.explain import sequence_to_json
from timetrail.plots import (
    diverging_color,
    flagged_frequency_series,
    heatmap_to_csv,
    heatmap_to_json,
    heatmap_to_svg,
    histogram_to_svg,
    render_sequence,
    series_to_svg,
    tis_histogram,
)

SERIES_HEADER = ("window_start", "flagged_count", "fraud_count")


def svg_ok(text: str) -> ET.Element:
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


def count_rects(text: str) -> int:
    return text.count("<rect")


@pytest.fixture
def matrix():
    return {
        "attributes": ["a", "b", "c"],
        "window": {"start": 100, "end": 200},
        "values": [
            [1.0, 0.5, None],
            [0.5, 1.0, -0.25],
            [None, -0.25, 1.0],
        ],
    }


# ---------------------------------------------------------------------------
# colors


def test_diverging_anchor_colors():
    assert diverging_color(0.0) == "#f7f7f7"
    assert diverging_color(1.0) == "#b2182b"
    assert diverging_color(-1.0) == "#2166ac"
    assert diverging_color(5.0) == "#b2182b"  # out of range clamps


def test_diverging_scale_is_monotone_toward_red():
    # the red channel of the hot side falls as values rise
    reds = [int(diverging_color(v)[1:3], 16) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
    greens = [int(diverging_color(v)[3:5], 16) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert greens == sorted(greens, reverse=True)
    assert reds[0] > reds[-1]


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_csv_exact_text(matrix):
    # long form, one line per ordered cell; an undefined cell has an empty value
    assert heatmap_to_csv(matrix) == (
        "attr_a,attr_b,window_start,window_end,coefficient\n"
        "a,a,100,200,1.0\n"
        "a,b,100,200,0.5\n"
        "a,c,100,200,\n"
        "b,a,100,200,0.5\n"
        "b,b,100,200,1.0\n"
        "b,c,100,200,-0.25\n"
        "c,a,100,200,\n"
        "c,b,100,200,-0.25\n"
        "c,c,100,200,1.0\n"
    )


def test_heatmap_json_round_trip(matrix):
    text = heatmap_to_json(matrix)
    back = json.loads(text)
    assert back == matrix
    assert '"values"' in text and "null" in text


def test_heatmap_round_trip_without_window():
    m = {"attributes": ["x"], "window": None, "values": [[1.0]]}
    assert heatmap_to_csv(m) == "attr_a,attr_b,window_start,window_end,coefficient\nx,x,,,1.0\n"
    assert json.loads(heatmap_to_json(m)) == m


def test_heatmap_svg_structure(matrix):
    svg = heatmap_to_svg(matrix)
    svg_ok(svg)
    # 9 cells plus the 6x6 hatch swatch inside <defs>
    assert count_rects(svg) == 9 + 1
    assert svg.count('fill="url(#undef)"') == 2
    assert '<pattern id="undef"' in svg
    assert "undefined" in svg  # hover titles spell it out


def test_heatmap_svg_is_deterministic(matrix):
    assert heatmap_to_svg(matrix) == heatmap_to_svg(matrix)


@pytest.mark.parametrize("value", [math.nan, math.inf, 5.0, -1.0000000000000002, True, "0.5"])
def test_heatmap_svg_refuses_a_value_that_is_not_a_coefficient(matrix, value):
    matrix["values"][1][2] = value
    with pytest.raises(ValueError, match=r"heatmap value of b / c is .*not a number in \[-1, 1\]"):
        heatmap_to_svg(matrix)


def test_heatmap_svg_draws_the_bounds_of_the_range(matrix):
    matrix["values"][1][2] = -1.0
    matrix["values"][2][1] = 1
    svg_ok(heatmap_to_svg(matrix))


# ---------------------------------------------------------------------------
# the CSV writer


def test_rows_to_csv_writes_floats_by_repr_and_none_as_empty():
    rows = [("a", 0.37499999999999994, None), ("b,c", 1e-300, -0.0), ("d", 5e-324, 1e16)]
    assert rows_to_csv(("name", "x", "y"), rows) == (
        "name,x,y\n"
        "a,0.37499999999999994,\n"
        '"b,c",1e-300,-0.0\n'
        "d,5e-324,1e+16\n"
    )
    assert rows_to_csv(("name",), []) == "name\n"


# ---------------------------------------------------------------------------
# flagged-frequency series


def test_series_zero_fills_interior_windows():
    rows = flagged_frequency_series([0, 50, 250], [1, 0, 1], [0, 0, 0], window_seconds=100)
    assert rows == [(0, 1, 0), (100, 0, 0), (200, 1, 0)]


def test_series_counts_fraud():
    rows = flagged_frequency_series([0, 10, 110], [1, 0, 0], [0, 1, 1], 100)
    assert rows == [(0, 1, 1), (100, 0, 1)]
    lines = rows_to_csv(SERIES_HEADER, rows).strip().splitlines()
    assert lines[0] == "window_start,flagged_count,fraud_count"
    assert lines[1] == "0,1,1"
    assert lines[2] == "100,0,1"


def test_series_csv_writes_a_window_without_fraud_as_zero():
    rows = flagged_frequency_series([5], [1], [0], 60)
    assert rows_to_csv(SERIES_HEADER, rows) == "window_start,flagged_count,fraud_count\n5,1,0\n"


def test_series_validation():
    with pytest.raises(ValueError, match="one entry per row"):
        flagged_frequency_series([0], [1], [1, 0], 10)


def test_series_empty_input():
    rows = flagged_frequency_series([], [], [], 60)
    assert rows == []
    svg = series_to_svg(rows, 60)
    svg_ok(svg)
    assert "no data" in svg


def reference_series(timestamps, flags, labels, window_seconds):
    """(window_start, flagged_count, fraud_count) counted row by row."""
    t_min = min(timestamps)
    n = (max(timestamps) - t_min) // window_seconds + 1
    counts, fraud = [0] * n, [0] * n
    for t, flag, label in zip(timestamps, flags, labels):
        k = (t - t_min) // window_seconds
        counts[k] += flag
        fraud[k] += label
    starts = [t_min + k * window_seconds for k in range(n)]
    return list(zip(starts, counts, fraud))


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(1_600_000_000, 1_600_100_000), st.integers(0, 1), st.integers(0, 1)),
        min_size=1,
        max_size=60,
    ),
    st.integers(60, 200_000),
)
def test_series_equals_a_row_by_row_count(rows, window_seconds):
    ts, flags, labels = (list(column) for column in zip(*rows))
    got = flagged_frequency_series(ts, flags, labels, window_seconds)
    assert got == reference_series(ts, flags, labels, window_seconds)


def test_series_svg_marks_fraud_windows():
    labels = [1 if i == 3 else 0 for i in range(10)]
    svg = series_to_svg(flagged_frequency_series([i * 60 for i in range(10)], [1] * 10, labels, 60), 60)
    svg_ok(svg)
    assert svg.count("<circle") == 1
    assert "<polyline" in svg
    assert 'stroke="#2166ac"' in svg


def test_series_svg_is_deterministic():
    rows = flagged_frequency_series([i * 7 for i in range(50)], [i % 2 for i in range(50)], [0] * 50, 35)
    assert series_to_svg(rows, 35) == series_to_svg(rows, 35)
    assert "window=35s, 10 windows" in series_to_svg(rows, 35)


# ---------------------------------------------------------------------------
# decision-path rendering


def make_sequence(n_steps):
    steps = [
        {
            "tree": i,
            "feature": f"f{i % 3}",
            "threshold": 0.5 * i,
            "branch": "left" if i % 2 == 0 else "right",
            "delta": 0.1 * (1 if i % 2 else -1),
        }
        for i in range(n_steps)
    ]
    margin = -0.2 + sum(s["delta"] for s in steps)
    return {
        "tx_id": "tx000042",
        "bias": -0.2,
        "feature_contributions": {},
        "margin": margin,
        "probability": 0.5,
        "tis": 0.0,
        "steps": steps,
    }


@pytest.mark.parametrize("n", [0, 1, 7])
def test_sequence_node_count(n):
    svg = render_sequence(make_sequence(n))
    svg_ok(svg)
    assert count_rects(svg) == n + 1  # bias node plus one per step
    assert "tx000042" in svg


def test_sequence_branch_text():
    svg = render_sequence(make_sequence(2))
    assert "t0: f0 &lt; 0" in svg  # left branch, escaped comparison
    assert "t1: f1 &gt;= 0.5" in svg
    assert "bias = -0.200000" in svg


def test_sequence_rendering_is_deterministic():
    seq = make_sequence(5)
    assert render_sequence(seq) == render_sequence(seq)


def test_sequence_renders_the_same_from_its_file(tmp_path):
    seq = make_sequence(6)
    for step, value in zip(seq["steps"], (-0.0, 5e-324, 1e16, -1e-7, 1.7976931348623157e308, -5e-324)):
        step["threshold"] = value
    seq["margin"] = -0.0
    path = tmp_path / "sequence_tx000042.json"
    path.write_text(sequence_to_json(seq), encoding="utf-8")
    back = json.loads(path.read_text(encoding="utf-8"))
    assert render_sequence(back) == render_sequence(seq)
    svg = render_sequence(back)
    assert "t0: f0 &lt; -0  " in svg and "t2: f2 &lt; 1e+16  " in svg
    assert "tx000042: margin -0.000000, p = 0.500000" in svg


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "step, name, label",
    [
        (None, "bias", "bias"),
        (None, "margin", "margin"),
        (None, "probability", "probability"),
        (1, "threshold", "step 1 threshold"),
        (2, "delta", "step 2 delta"),
    ],
)
def test_sequence_refuses_a_number_that_is_not_finite(step, name, label, value):
    seq = make_sequence(3)
    (seq if step is None else seq["steps"][step])[name] = value
    with pytest.raises(ValueError, match=f"sequence {label} is {value!r}, not a finite number"):
        render_sequence(seq)


# ---------------------------------------------------------------------------
# TIS histogram


def test_histogram_counts_partition():
    counts = [c for _, _, c in tis_histogram([0.0, 0.05, 0.5, 0.95, 1.0])]
    assert len(counts) == 10
    assert sum(counts) == 5
    assert counts[0] == 2  # 0.0 and 0.05
    assert counts[5] == 1
    assert counts[9] == 2  # 0.95 plus 1.0 in the closed last bin


def test_histogram_has_ten_uniform_bins():
    edges = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert tis_histogram([]) == [(edges[i], edges[i + 1], 0) for i in range(10)]


def test_histogram_validation():
    for v in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="outside"):
            tis_histogram([0.5, v])


def test_histogram_csv():
    text = rows_to_csv(("bin_start", "bin_end", "count"), tis_histogram([0.25, 0.25, 0.8]))
    lines = text.strip().splitlines()
    assert lines[0] == "bin_start,bin_end,count"
    assert len(lines) == 11
    assert lines[3] == "0.2,0.3,2"
    assert lines[9] == "0.8,0.9,1"


def test_histogram_svg():
    rows = [(0.0, 0.5, 3), (0.5, 1.0, 1)]
    svg = histogram_to_svg(rows)
    svg_ok(svg)
    assert count_rects(svg) == 2
    assert "0.0" in svg and "1.0" in svg
    assert "[0.50, 1.00]: 1" in svg  # the last bin is closed
    assert histogram_to_svg(rows) == histogram_to_svg(rows)
