"""Correlation tests: the two-pass matrix and the windowed lanes, each held
to the references in oracles.py and to a textbook formula."""
import math
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import transactions
from oracles import pearson, window_correlations
from timetrail.correlate import (
    CorrelationConfig,
    _window_correlations,
    correlation_matrix,
    dynamic_correlation,
)
from timetrail.enrich import ATTRIBUTE_NAMES, EnrichedTable, enrich


def oracle_pearson(x, y):
    """Textbook population Pearson, written independently of the module."""
    n = len(x)
    if n < 2 or min(x) == max(x) or min(y) == max(y):
        return None
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


# --- scalar cases, through both routes -----------------------------------------


def _table(**columns):
    """An EnrichedTable whose named columns hold the given floats, the rest 0.

    correlation_matrix reads every column through column(), as float64.
    """
    n = len(next(iter(columns.values())))
    cols = {f.name: np.zeros(n) for f in fields(EnrichedTable)}
    cols.update({name: np.array(v, dtype=np.float64) for name, v in columns.items()})
    return EnrichedTable(**cols)


def matrix_r(xs, ys):
    """correlation_matrix's coefficient of the two series."""
    m = correlation_matrix(_table(amount=xs, hour_of_day=ys), ("amount", "hour_of_day"))
    return m["values"][0][1]


def windowed_r(xs, ys):
    """_window_correlations' coefficient of one window holding both series."""
    x, y = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    (r,) = _window_correlations(x, y, np.array([0]), np.array([len(xs)]))
    return r


ROUTES = pytest.mark.parametrize("route", [matrix_r, windowed_r])


@ROUTES
def test_perfect_positive_is_exactly_one(route):
    assert route([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0


@ROUTES
def test_perfect_negative_is_exactly_minus_one(route):
    assert route([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == -1.0


@ROUTES
def test_partial_correlation_exact(route):
    r = route([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert abs(r - 0.8) < 1e-12


@ROUTES
def test_identical_series_exactly_one(route):
    xs = [3.7, 1.2, 9.9, 4.4, 2.0]
    assert route(xs, xs) == 1.0


@ROUTES
def test_undefined_cases_return_none(route):
    assert route([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) is None
    assert route([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) is None
    assert route([1.0], [2.0]) is None


def test_windowed_route_of_an_empty_window_is_none():
    x = np.array([1.0, 2.0])
    assert _window_correlations(x, x, np.array([1]), np.array([1])) == [None]
    assert correlation_matrix(_table(amount=[]), ("amount",))["values"] == [[None]]


@ROUTES
def test_matches_textbook_on_random_series(route):
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 40)
        x = [rng.uniform(-100, 100) for _ in range(n)]
        y = [rng.uniform(-100, 100) for _ in range(n)]
        assert route(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-12)


_series = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=2, max_size=30
)


@given(_series, _series)
@settings(max_examples=100)
def test_symmetry_property(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assert matrix_r(x, y) == matrix_r(y, x)
    # Welford's cross term is not symmetric in its rounding
    rx, ry = windowed_r(x, y), windowed_r(y, x)
    assert rx == ry if rx is None or ry is None else rx == pytest.approx(ry, abs=1e-9)


@given(_series, st.floats(0.1, 50), st.floats(-1000, 1000, allow_nan=False))
@settings(max_examples=100)
def test_positive_affine_invariance(x, scale, shift):
    y = [scale * v + shift for v in x]
    if min(x) == max(x) or min(y) == max(y):
        assert matrix_r(x, y) is None
        return
    # keep the spread far above rounding noise so the property is numeric-safe
    mag = 1.0 + abs(shift) + max(abs(v) for v in y)
    assume(max(y) - min(y) > 1e-6 * mag)
    assert matrix_r(x, y) == pytest.approx(1.0, abs=1e-9)


@given(_series)
@settings(max_examples=100)
def test_range_clamped(x):
    y = x[::-1]
    for r in (matrix_r(x, y), windowed_r(x, y)):
        if r is not None:
            assert -1.0 <= r <= 1.0


# --- windowed route against the two-pass oracle --------------------------------


def test_windows_match_two_pass_on_random_windows():
    # 1000 windows of 0-30 rows side by side, all taken by one lane loop
    rng = random.Random(11)
    xs, ys, lo, hi = [], [], [], []
    for _ in range(1000):
        n = rng.randint(0, 30)
        if rng.random() < 0.1:
            x = [rng.uniform(-5, 5)] * n  # constant window, undefined
        else:
            x = [rng.uniform(-1e4, 1e4) for _ in range(n)]
        lo.append(len(xs))
        xs += x
        ys += [rng.uniform(-1e4, 1e4) for _ in range(n)]
        hi.append(len(xs))
    got = _window_correlations(np.array(xs), np.array(ys), np.array(lo), np.array(hi))
    for r, a, b in zip(got, lo, hi):
        expected = pearson(xs[a:b], ys[a:b])
        if expected is None:
            assert r is None
        else:
            assert r == pytest.approx(expected, abs=1e-9)


def test_windows_handle_large_offsets():
    # catastrophic cancellation kills naive sum-of-squares accumulators
    base = 1e9
    x = [base + i for i in range(10)]
    y = [base + 2 * i for i in range(10)]
    assert windowed_r(x, y) == pytest.approx(1.0, abs=1e-9)


# --- dynamic windowed correlation ----------------------------------------------


def _enriched_fixture(n=200, seed=3):
    rng = random.Random(seed)
    rows = [
        (
            f"tx{i:04d}",
            1_000_000 + rng.randint(0, 6 * 86400),
            f"u{rng.randint(0, 5)}",
            f"t{rng.randint(0, 2)}",
            round(rng.uniform(1, 100), 2),
            "purchase",
        )
        for i in range(n)
    ]
    return enrich(transactions(rows))


def test_dynamic_correlation_matches_per_window_oracle():
    rows = _enriched_fixture()
    window, stride = 86400, 43200
    series = dynamic_correlation(rows, ("user_tx_count_24h", "amount"), CorrelationConfig(window, stride))
    ts = rows.timestamp.tolist()
    t_min = min(ts)
    for k, (start, r) in enumerate(series.points):
        assert start == t_min + k * stride
        inside = [i for i, t in enumerate(ts) if start <= t < start + window]
        x = [int(rows.user_tx_count_24h[i]) for i in inside]
        y = [float(rows.amount[i]) for i in inside]
        expected = oracle_pearson([float(v) for v in x], y)
        if expected is None:
            assert r is None
        else:
            assert r == pytest.approx(expected, abs=1e-9)


def test_dynamic_correlation_covers_range():
    rows = _enriched_fixture()
    series = dynamic_correlation(rows, ("hour_of_day", "amount"), CorrelationConfig(86400, 86400))
    ts = rows.timestamp.tolist()
    assert series.points[0][0] == min(ts)
    assert series.points[-1][0] <= max(ts)
    assert series.points[-1][0] + 86400 > max(ts)


def test_dynamic_correlation_largest_window_ends_at_the_last_row():
    # start + window wraps in int64 here; each window must still take every later row
    rows = _enriched_fixture()
    span = int(rows.timestamp[-1] - rows.timestamp[0]) + 1
    pair = ("hour_of_day", "amount")
    largest = dynamic_correlation(rows, pair, CorrelationConfig(int(np.iinfo(np.int64).max), 86400)).points
    assert largest == dynamic_correlation(rows, pair, CorrelationConfig(span, 86400)).points
    assert all(r is not None for _, r in largest[:-1])


def test_correlation_config_refuses_a_window_that_would_skip_rows():
    with pytest.raises(ValueError, match="must be positive"):
        CorrelationConfig(0, 0)
    with pytest.raises(ValueError, match="stride 200 larger than window 100 would skip rows"):
        CorrelationConfig(100, 200)


def test_dynamic_correlation_validates_arguments():
    rows = _enriched_fixture(20)
    with pytest.raises(ValueError):
        dynamic_correlation(rows, ("no_such", "amount"), CorrelationConfig(100, 100))


def test_dynamic_correlation_empty_rows():
    rows = _enriched_fixture(20)[:0]
    assert dynamic_correlation(rows, ("hour_of_day", "amount"), CorrelationConfig(100, 100)).points == ()


# --- correlation matrix ---------------------------------------------------------


def _cell(m, a, b):
    attrs = m["attributes"]
    return m["values"][attrs.index(a)][attrs.index(b)]


def test_matrix_symmetric_with_unit_diagonal():
    rows = _enriched_fixture()
    m = correlation_matrix(rows, ATTRIBUTE_NAMES)
    k = len(m["attributes"])
    for i in range(k):
        for j in range(k):
            assert m["values"][i][j] == m["values"][j][i]
    for i, name in enumerate(m["attributes"]):
        vals = rows.column(name).tolist()
        if min(vals) == max(vals):
            assert m["values"][i][i] is None
        else:
            assert m["values"][i][i] == 1.0


def test_matrix_window_spans_the_rows():
    rows = _enriched_fixture()
    m = correlation_matrix(rows, ("hour_of_day", "amount"))
    assert m["attributes"] == ["hour_of_day", "amount"]
    assert m["window"] == {"start": int(rows.timestamp[0]), "end": int(rows.timestamp[-1])}
    assert correlation_matrix(rows[:0], ("amount",)) == {
        "attributes": ["amount"], "window": None, "values": [[None]]
    }


def test_matrix_cells_match_pearson():
    rows = _enriched_fixture(120)
    attrs = ("hour_of_day", "user_tx_count_24h", "amount_over_user_mean_30d")
    m = correlation_matrix(rows, attrs)
    for i, a in enumerate(attrs):
        for j, b in enumerate(attrs):
            if i == j:
                continue
            x = [float(v) for v in getattr(rows, a)]
            y = [float(v) for v in getattr(rows, b)]
            assert m["values"][i][j] == pearson(x, y)
            assert _cell(m, a, b) == m["values"][i][j]


def test_matrix_constant_attribute_undefined_off_diagonal():
    rows = [(f"tx{i}", 1000 + i, "u1", "t1", 10.0, "purchase") for i in range(5)]
    m = correlation_matrix(enrich(transactions(rows)), ("is_night", "amount"))
    assert _cell(m, "is_night", "amount") is None  # is_night constant here
    assert _cell(m, "amount", "amount") is None  # amount constant too


def _assert_cells_equal_pearson(columns):
    m = correlation_matrix(_table(**columns), tuple(columns))
    for i, a in enumerate(columns):
        for j, b in enumerate(columns):
            if i != j:
                assert m["values"][i][j] == pearson(columns[a], columns[b]), (a, b)


def test_matrix_equals_pearson_where_pow_and_product_round_apart():
    # libm pow(d, 2) and d * d differ in the last bit for some deviations;
    # pearson squares with **, so the matrix must too
    columns = {
        "amount": [8.9, 7.1, 2.2],
        "hour_of_day": [3.3, 8.5, 1.3],
        "day_of_week": [6.0, 0.7, 7.0],
        "is_night": [4.1, 7.0, 4.2],
        "user_tx_count_24h": [5.0, 5.0, 5.0],  # constant
        "user_tx_count_48h": [0.0, 5e-324, 0.0],  # varies, but its squares underflow to 0
    }
    deviations = [v - math.fsum(xs) / len(xs) for xs in columns.values() for v in xs]
    assert any(d**2 != d * d for d in deviations)
    _assert_cells_equal_pearson(columns)
    m = correlation_matrix(_table(**columns), tuple(columns))
    assert _cell(m, "user_tx_count_48h", "amount") is None
    assert _cell(m, "user_tx_count_24h", "amount") is None


def test_matrix_equals_pearson_on_two_rows():
    _assert_cells_equal_pearson(
        {"amount": [1.0, 3.0], "hour_of_day": [2.0, 1.0], "is_night": [4.0, 4.0]}
    )


# --- lane-parallel windowed correlation against the per-window loop -------------


def reference_dynamic_points(rows, pair, window, stride):
    """dynamic_correlation's points by the oracle's per-window Welford loop."""
    x, y = (rows.column(name) for name in pair)
    ts = rows.timestamp
    starts = np.arange(ts[0], ts[-1] + 1, stride)
    lo, hi = np.searchsorted(ts, starts), np.searchsorted(ts, starts + window)
    return tuple(zip(starts.tolist(), window_correlations(x, y, lo, hi)))


def _dense_table(n=3000, seed=5):
    """n rows over 60 days with bursts, constant runs, repeats and a wide range."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, 60 * 86400, n)) + 1_700_000_000
    ts[100:160] = ts[100]  # one second holding 60 rows
    x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
    x[500:900] = 2.5  # constant over days: undefined windows
    y = np.round(rng.normal(size=n), 1)  # coarse: ties and exact repeats
    y[1500:1510] = -0.0
    cols = {f.name: np.zeros(n) for f in fields(EnrichedTable)}
    cols.update(timestamp=ts, amount=x, amount_over_user_mean_30d=y)
    return EnrichedTable(**cols)


@pytest.mark.parametrize(
    "window, stride",
    [
        (86400, 86400),  # daily
        (3600, 3600),  # hourly: many windows with 0 or 1 rows
        (86400, 3600),  # overlapping: 24 windows per row
        (7 * 86400, 86400),
        (70 * 86400, 70 * 86400),  # one window over all rows
    ],
)
def test_dynamic_correlation_equals_per_window_loop(window, stride):
    rows = _dense_table()
    pair = ("amount", "amount_over_user_mean_30d")
    got = dynamic_correlation(rows, pair, CorrelationConfig(window, stride)).points
    assert repr(got) == repr(reference_dynamic_points(rows, pair, window, stride))


def _lane_data(seed, n=2000):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 1e3 + 1e6
    y = x * 0.5 + rng.normal(size=n)
    x[300:400] = 7.0  # constant windows
    return rng, x, y


@pytest.mark.parametrize("n_windows", [0, 1, 31, 32, 33, 200])
def test_window_correlations_equal_per_window_loop(n_windows):
    rng, x, y = _lane_data(n_windows)
    lo = rng.integers(0, 2000 - 400, n_windows)
    size = rng.choice([0, 1, 2, 3, 50, 120, 399], n_windows)  # many equal lengths
    hi = lo + size
    got = _window_correlations(x, y, lo, hi)
    assert repr(got) == repr(window_correlations(x, y, lo, hi))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_correlations_one_long_window_among_short_ones(seed):
    # after three steps one lane is left, and it runs its long tail alone
    rng, x, y = _lane_data(seed)
    n_short = 300
    lo = rng.integers(0, 2000 - 3, n_short + 1)
    hi = lo + rng.integers(0, 4, n_short + 1)
    long = int(rng.integers(0, n_short + 1))
    lo[long] = int(rng.integers(0, 400))
    hi[long] = lo[long] + 1500 + int(rng.integers(0, 100))
    got = _window_correlations(x, y, lo, hi)
    assert got[long] is not None
    assert repr(got) == repr(window_correlations(x, y, lo, hi))
