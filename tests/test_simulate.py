"""Synthetic generator tests: exact counts, determinism, scenario structure."""

import hashlib

import numpy as np
import pytest

from conftest import records as _rows
from timetrail.data import hour_of_day, serialize_transactions
from timetrail.simulate import (
    DAY,
    HOUR,
    SCENARIOS,
    ScenarioConfig,
    describe,
    generate,
    largest_remainder,
    round_half_up,
)

START = 1672531200  # 2023-01-01T00:00:00Z
END = 1688169600  # 2023-07-01T00:00:00Z


@pytest.fixture(scope="module")
def small():
    return generate(ScenarioConfig(target_rows=10_000, fraud_rate=0.0013, seed=0))


# ---------------------------------------------------------------------------
# counting helpers


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(12.999) == 13
    assert round_half_up(-0.5) == 0


def test_largest_remainder_exact_total():
    assert largest_remainder([0.2] * 5, 13) == [3, 3, 3, 2, 2]
    assert largest_remainder([1.0, 1.0], 3) == [2, 1]  # tie goes to the lower index
    assert sum(largest_remainder([0.7, 0.2, 0.1], 997)) == 997
    assert largest_remainder([0.0, 1.0], 4) == [0, 4]


def test_largest_remainder_rejects_zero_weights():
    with pytest.raises(ValueError, match="positive sum"):
        largest_remainder([0.0, 0.0], 5)


@pytest.mark.parametrize("seed", range(5))
def test_largest_remainder_tracks_shares(seed):
    rng = np.random.default_rng(seed)
    w = rng.random(6)
    total = int(rng.integers(1, 5000))
    counts = largest_remainder(w, total)
    assert sum(counts) == total
    shares = w / w.sum() * total
    for c, s in zip(counts, shares):
        assert abs(c - s) < 1.0  # each count within one row of its exact share


# ---------------------------------------------------------------------------
# exact sizes and determinism


def test_exact_row_and_fraud_counts(small):
    doc = describe(small)
    assert doc["rows"] == len(small) == 10_000
    assert doc["fraud_count"] == 13  # round_half_up(10000 * 0.0013)
    assert doc["fraud_rate"] == pytest.approx(0.0013)


def test_regeneration_is_byte_identical(small):
    again = generate(ScenarioConfig(target_rows=10_000, fraud_rate=0.0013, seed=0))
    assert serialize_transactions(again) == serialize_transactions(small)


def test_different_seed_changes_data(small):
    other = generate(ScenarioConfig(target_rows=10_000, fraud_rate=0.0013, seed=1))
    assert serialize_transactions(other) != serialize_transactions(small)
    assert describe(other)["fraud_count"] == 13  # counts stay pinned either way


def test_rows_are_chronological_with_sequential_ids(small):
    ts = small.timestamp.tolist()
    for a, b in zip(ts, ts[1:]):
        assert a <= b
    ids = small.tx_id.tolist()
    assert ids[0] == "tx000000"
    assert ids == sorted(ids)


def test_timestamps_stay_inside_period(small):
    for ts in small.timestamp.tolist():
        assert START <= ts < END


def test_fraud_rows_and_scenario_tags_coincide(small):
    for label, scenario in zip(small.label.tolist(), small.scenario.tolist()):
        assert (label == "fraud") == (scenario != "")


def test_scenario_counts_split_by_largest_remainder(small):
    per = {}
    for scenario in small.scenario.tolist():
        if scenario != "":
            per[scenario] = per.get(scenario, 0) + 1
    expected = largest_remainder([0.2] * 5, 13)
    assert [per.get(s, 0) for s in SCENARIOS] == expected


def test_describe_reconciles(small):
    doc = describe(small)
    assert doc["rows"] == 10_000
    assert doc["fraud_count"] == 13
    assert sum(doc["per_scenario"].values()) == 13
    assert sum(doc["per_day_volume"].values()) == 10_000
    assert all(v > 0 for v in doc["per_day_volume"].values())


# ---------------------------------------------------------------------------
# scenario structure, checked by brute force on a fraud-heavy config


@pytest.fixture(scope="module")
def heavy():
    # high rate so every scenario has enough rows to inspect
    return generate(
        ScenarioConfig(
            n_users=300,
            n_terminals=40,
            target_rows=20_000,
            fraud_rate=0.02,
            seed=3,
        )
    )


# sha256 of serialize_transactions(generate(cfg)) per generator path: each
# scenario alone at the heavy density, and the default mix at 8,000 users and
# 240 terminals. The 3,000-row golden run never completes a 25-40-row
# terminal_compromise cluster, so only these pin every path's bytes.
GENERATOR_DIGESTS = {
    "burst": "cb952f4bc15129dbddced1ac64b03500a204ecaf2ed5af7593441b13b22d559c",
    "night_owl": "5f6ac587474cbe7bad6e95be45e18e41d82ffd699394e1f1f72cb099de4c9a90",
    "new_account_abuse": "13eef662a5b7efbc70abc525ad7636c50db114a2910aa0c2ce87ce4e86173cb2",
    "terminal_compromise": "9b9ae8beb9aaa2bdca9463c49f883b9883e8c8cae1e80698efa761d3df9fce1b",
    "amount_spike": "d7919ab80714e4e0f75c6165bf62db18cd3506f9ecdf762a497cd8e7bc59db34",
    "wide": "cb0bb14ac9966dee504b942f4a0fb2f9ac6b6b9d89638b363c6b7dc1f8ffb25f",
}


@pytest.mark.parametrize("path", GENERATOR_DIGESTS)
def test_generator_bytes_are_pinned_per_path(path):
    if path == "wide":
        cfg = ScenarioConfig(n_users=8_000, n_terminals=240, target_rows=50_000, fraud_rate=0.005, seed=7)
    else:
        cfg = ScenarioConfig(
            n_users=300, n_terminals=40, target_rows=20_000, fraud_rate=0.02, seed=3, scenario_mix={path: 1.0}
        )
    text = serialize_transactions(generate(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[path]


def test_burst_rows_see_five_in_48h(heavy):
    by_user: dict[str, list[int]] = {}
    for t in _rows(heavy):
        by_user.setdefault(t.user_id, []).append(t.timestamp)
    checked = 0
    for t in _rows(heavy):
        if t.scenario != "burst":
            continue
        window = [
            ts for ts in by_user[t.user_id] if t.timestamp - 48 * HOUR < ts <= t.timestamp
        ]
        assert len(window) >= 5
        checked += 1
    assert checked >= 50


def test_night_owl_rows_land_in_dead_hours(heavy):
    hours = {hour_of_day(t.timestamp) for t in _rows(heavy) if t.scenario == "night_owl"}
    assert hours  # scenario must be present
    assert hours <= {1, 2, 3, 4}


def test_new_account_users_live_fast(heavy):
    spans: dict[str, list[int]] = {}
    for t in _rows(heavy):
        if t.user_id.startswith("n"):
            spans.setdefault(t.user_id, []).append(t.timestamp)
    assert spans
    for ts in spans.values():
        assert max(ts) - min(ts) <= 90 * 60
    tagged = {t.user_id for t in _rows(heavy) if t.scenario == "new_account_abuse"}
    assert tagged == set(spans)  # synthetic accounts exist only for this scenario


def test_terminal_compromise_concentrates_on_terminals(heavy):
    rows = [t for t in _rows(heavy) if t.scenario == "terminal_compromise"]
    assert len(rows) >= 50
    per_terminal: dict[str, list[int]] = {}
    for t in rows:
        per_terminal.setdefault(t.terminal_id, []).append(t.timestamp)
    # each hit terminal absorbs a concentrated run of distinct cards
    biggest = max(len(v) for v in per_terminal.values())
    assert biggest >= 25


def test_amount_spike_rows_are_outsized(heavy):
    spikes = [t.amount for t in _rows(heavy) if t.scenario == "amount_spike"]
    legit = [t.amount for t in _rows(heavy) if t.label == "legit"]
    assert spikes
    assert np.mean(spikes) > 3.0 * np.mean(legit)


# ---------------------------------------------------------------------------
# validation


def test_fraud_count_rounding_to_zero_is_an_error():
    with pytest.raises(ValueError, match="rounds to zero"):
        generate(ScenarioConfig(target_rows=100, fraud_rate=0.001))


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"n_users": 0}, "n_users"),
        ({"n_terminals": 0}, "n_terminals"),
        ({"period": (0, DAY)}, "two days"),
        ({"period": (0, 3 * DAY)}, "epoch second 1"),
        ({"target_rows": 0}, "target_rows"),
        ({"fraud_rate": 0.0}, "fraud_rate"),
        ({"fraud_rate": 1.0}, "fraud_rate"),
        ({"scenario_mix": {"burst": 1.0, "heist": 0.0}}, "unknown scenarios"),
        ({"scenario_mix": {"burst": 0.5}}, "sum to 1"),
        ({"scenario_mix": {"burst": 1.5, "night_owl": -0.5}}, "non-negative"),
    ],
)
def test_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**kwargs)


def test_single_scenario_mix():
    mix = {"amount_spike": 1.0}
    data = generate(
        ScenarioConfig(target_rows=5000, fraud_rate=0.01, scenario_mix=mix, seed=2)
    )
    tags = {s for s in data.scenario.tolist() if s != ""}
    assert tags == {"amount_spike"}
    assert describe(data)["fraud_count"] == 50


def test_target_rows_too_small_for_scenarios():
    # burst precursors alone overflow a tiny row budget
    with pytest.raises(ValueError, match="target_rows too small"):
        generate(
            ScenarioConfig(
                target_rows=30,
                fraud_rate=0.9,
                scenario_mix={"burst": 1.0},
            )
        )
