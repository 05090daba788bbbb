"""Deterministic synthetic transaction generator with labeled fraud scenarios.

Row counts are exact: the dataset has exactly target_rows rows, of which
exactly round_half_up(target_rows * fraud_rate) are fraud. Every random draw
comes from a named stream split off the root seed (allocation, per-user
activity, one stream per scenario), so regenerating with the same config and
seed is byte-identical, and per-user streams could be drawn in parallel
without changing the output.

Scenarios:
  burst               cluster of rapid transactions; each fraud row's user has
                      at least 5 transactions inside the trailing 48h window
                      (four legitimate precursor rows guarantee this even for
                      the first row of a burst)
  night_owl           same-user runs of 2-4 rows between 01:00 and 04:59 UTC
  new_account_abuse   fresh accounts whose entire history is a fraud cluster
                      inside their first 90 minutes
  terminal_compromise many users hitting one terminal within 4 hours
  amount_spike        amount at least 8x the user's mean amount parameter

Fraud amounts and types are drawn from the same distributions as legitimate
traffic wherever the scenario does not require otherwise, so burst,
night_owl, new_account_abuse, and terminal_compromise carry purely temporal
signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .data import LABELS, TX_TYPES, Dataset

SCENARIOS = ("burst", "night_owl", "new_account_abuse", "terminal_compromise", "amount_spike")

HOUR = 3600
DAY = 86400

# Diurnal activity profile for legitimate traffic: quiet nights, busy days.
_HOUR_WEIGHTS = np.array([0.2] * 7 + [1.0] * 16 + [0.5], dtype=np.float64)
HOUR_PROFILE = _HOUR_WEIGHTS / _HOUR_WEIGHTS.sum()
TYPE_PROFILE = np.array([0.55, 0.20, 0.15, 0.10], dtype=np.float64)

# Named sub-stream tags under the root seed.
_STREAM_ALLOC = 0
_STREAM_USER = 1
_STREAM_SCENARIO = 2
_STREAM_PROFILE = 3


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _default_mix() -> dict[str, float]:
    return {name: 1.0 / len(SCENARIOS) for name in SCENARIOS}


@dataclass(frozen=True)
class ScenarioConfig:
    n_users: int = 500
    n_terminals: int = 50
    # 2023-01-01 .. 2023-07-01 UTC, half-open
    period: tuple[int, int] = (1672531200, 1688169600)
    target_rows: int = 10_000
    fraud_rate: float = 0.0013
    scenario_mix: dict[str, float] = field(default_factory=_default_mix)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.n_terminals < 1:
            raise ValueError(f"n_terminals must be >= 1, got {self.n_terminals}")
        start, end = self.period
        if end - start < 2 * DAY:
            raise ValueError("period must span at least two days")
        if start < 1:  # generate draws from [start, end); timestamps must be positive
            raise ValueError(f"period must start at epoch second 1 or later, got {list(self.period)}")
        if self.target_rows < 1:
            raise ValueError(f"target_rows must be >= 1, got {self.target_rows}")
        if not (0.0 < self.fraud_rate < 1.0):
            raise ValueError(f"fraud_rate must be in (0, 1), got {self.fraud_rate}")
        unknown = set(self.scenario_mix) - set(SCENARIOS)
        if unknown:
            raise ValueError(f"unknown scenarios in mix: {sorted(unknown)}")
        weights = [self.scenario_mix.get(s, 0.0) for s in SCENARIOS]
        if not all(0.0 <= w < math.inf for w in weights):
            raise ValueError(f"scenario_mix weights must be finite and non-negative, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"scenario weights must sum to 1, got {sum(weights)}")


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Integer allocation proportional to weights, summing exactly to total.

    Remainders break ties toward the lower index, keeping this deterministic.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.sum() <= 0:
        raise ValueError("weights must have a positive sum")
    shares = w / w.sum() * total
    counts = np.floor(shares).astype(np.int64)
    remainder = int(total - counts.sum())
    if remainder > 0:
        fracs = shares - counts
        order = sorted(range(len(w)), key=lambda i: (-fracs[i], i))
        for i in order[:remainder]:
            counts[i] += 1
    return [int(c) for c in counts]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


@dataclass
class _World:
    """The simulated population and the column chunks generated so far."""

    cfg: ScenarioConfig
    mean_amount: np.ndarray  # per known user
    home_terminals: np.ndarray  # (n_users, 3)
    n_new_users: int = 0
    # (ts, user, terminal, amount, tx_type, fraud, scenario); scenario -1 means none
    chunks: list[tuple[np.ndarray, ...]] = field(default_factory=list)

    def new_user(self) -> int:
        self.n_new_users += 1
        return self.cfg.n_users + self.n_new_users - 1

    def add(self, rng, ts, users, fraud, scenario, mean=None, terminals=None, amounts=None) -> None:
        """Rows at `ts` for `users` (one user id, or one per row).

        Draws, in this order, what the caller did not fix: terminals (mostly
        one of the user's home terminals, sometimes any), amounts around the
        user's mean, then transaction types. Without `terminals` and `mean`,
        `users` must be known users. One user id takes that user's scalar
        mean: a per-row mean array would slow the loop over every user.
        """
        k = len(ts)
        if terminals is None:
            slot = rng.integers(0, self.home_terminals.shape[1], k)
            random_term = rng.integers(0, self.cfg.n_terminals, k)
            use_home = rng.random(k) < 0.85
            terminals = np.where(use_home, self.home_terminals[users, slot], random_term)
        if amounts is None:
            mean = self.mean_amount[users] if mean is None else mean
            # gamma(shape=3) has mean shape*scale; heavier right tail than normal
            amounts = np.round(rng.gamma(3.0, mean / 3.0, k), 2)
        tx_type = rng.choice(len(TX_TYPES), k, p=TYPE_PROFILE)
        self.chunks.append(
            (ts, np.full(k, users, dtype=np.int64), terminals, amounts, tx_type,
             np.full(k, fraud, dtype=np.int8), np.full(k, scenario, dtype=np.int8))
        )


def _clusters(count: int, rng: np.random.Generator, low: int, high: int):
    """Cluster sizes drawn from [low, high) until they make up count rows; the last is cut to fit."""
    while count > 0:
        size = int(min(count, rng.integers(low, high)))
        yield size
        count -= size


def _burst(count: int, rng: np.random.Generator, world: _World, scenario: int) -> None:
    """Bursts ride on four same-user precursor rows spread over the 12h before
    the fraud cluster so even the first fraud row sees >= 5 in 48h."""
    start, end = world.cfg.period
    for size in _clusters(count, rng, 3, 8):
        u = int(rng.integers(0, world.cfg.n_users))
        anchor = int(rng.integers(start, end - 36 * HOUR))
        pre_ts = anchor + np.sort(rng.integers(0, 12 * HOUR, 4))
        fraud_ts = anchor + np.sort(rng.integers(12 * HOUR, 36 * HOUR, size))
        world.add(rng, pre_ts, u, 0, -1)
        world.add(rng, fraud_ts, u, 1, scenario)


def _night_owl(count: int, rng: np.random.Generator, world: _World, scenario: int) -> None:
    """Runs of 2-4 same-user rows between 01:00 and 04:59; the rapid pace
    leaves small recency gaps on top of the night flag."""
    start, end = world.cfg.period
    n_days = (end - start) // DAY
    for size in _clusters(count, rng, 2, 5):
        u = int(rng.integers(0, world.cfg.n_users))
        night = start + int(rng.integers(0, n_days)) * DAY + int(rng.integers(1, 4)) * HOUR
        world.add(rng, night + np.sort(rng.integers(0, 2 * HOUR, size)), u, 1, scenario)


def _new_account_abuse(count: int, rng: np.random.Generator, world: _World, scenario: int) -> None:
    start, end = world.cfg.period
    for size in _clusters(count, rng, 3, 6):
        mean = float(np.exp(rng.normal(3.3, 0.6)))
        u = world.new_user()
        birth = int(rng.integers(start, end - DAY))
        # rapid-fire within the account's first 90 minutes
        ts = birth + np.sort(rng.integers(0, 90 * 60, size))
        world.add(rng, ts, u, 1, scenario, mean=mean, terminals=rng.integers(0, world.cfg.n_terminals, size))


def _terminal_compromise(count: int, rng: np.random.Generator, world: _World, scenario: int) -> None:
    start, end = world.cfg.period
    for size in _clusters(count, rng, 25, 41):
        terminal = int(rng.integers(0, world.cfg.n_terminals))
        begin = int(rng.integers(start, end - DAY))
        # many cards, one terminal, a few hours: the terminal count races
        # past anything organic traffic produces
        ts = begin + np.sort(rng.integers(0, 4 * HOUR, size))
        users = rng.integers(0, world.cfg.n_users, size)
        world.add(rng, ts, users, 1, scenario, terminals=np.full(size, terminal, dtype=np.int64))


def _amount_spike(count: int, rng: np.random.Generator, world: _World, scenario: int) -> None:
    start, end = world.cfg.period
    users = rng.integers(0, world.cfg.n_users, count)
    ts = rng.integers(start, end, count)
    amounts = np.round(world.mean_amount[users] * rng.uniform(8.0, 15.0, count), 2)
    world.add(rng, ts, users, 1, scenario, amounts=amounts)


# in SCENARIOS order
_SCENARIO_GENERATORS = (_burst, _night_owl, _new_account_abuse, _terminal_compromise, _amount_spike)


def generate(cfg: ScenarioConfig) -> Dataset:
    """Labeled synthetic dataset with exact row and fraud counts."""
    n_fraud = round_half_up(cfg.target_rows * cfg.fraud_rate)
    if n_fraud == 0:
        raise ValueError(
            "fraud count rounds to zero; increase target_rows or fraud_rate"
        )
    start, end = cfg.period
    n_days = (end - start) // DAY

    profile_rng = _rng(cfg.seed, _STREAM_PROFILE)
    world = _World(
        cfg=cfg,
        mean_amount=np.exp(profile_rng.normal(3.3, 0.6, cfg.n_users)),
        home_terminals=profile_rng.integers(0, cfg.n_terminals, (cfg.n_users, 3)),
    )
    scenario_counts = largest_remainder(
        [cfg.scenario_mix.get(s, 0.0) for s in SCENARIOS], n_fraud
    )
    for i, (count, scenario_rows) in enumerate(zip(scenario_counts, _SCENARIO_GENERATORS)):
        scenario_rows(count, _rng(cfg.seed, _STREAM_SCENARIO, i), world, i)

    rows_so_far = sum(len(chunk[0]) for chunk in world.chunks)
    n_legit = cfg.target_rows - rows_so_far
    if n_legit < 0:
        raise ValueError(
            "target_rows too small for the scenario structure; "
            f"scenarios already need {rows_so_far} rows"
        )

    alloc_rng = _rng(cfg.seed, _STREAM_ALLOC)
    user_weights = alloc_rng.gamma(6.0, 1.0 / 6.0, cfg.n_users)
    per_user = largest_remainder(user_weights, n_legit)
    for u in range(cfg.n_users):
        k = per_user[u]
        if k == 0:
            continue
        rng = _rng(cfg.seed, _STREAM_USER, u)
        ts = (
            start
            + rng.integers(0, n_days, k) * DAY
            + rng.choice(24, k, p=HOUR_PROFILE) * HOUR
            + rng.integers(0, HOUR, k)
        )
        world.add(rng, ts, u, 0, -1)

    ts, user, terminal, amount, tx_type, fraud, scenario = map(np.concatenate, zip(*world.chunks))
    order = np.argsort(ts, kind="stable")

    user_ids = [f"u{i:05d}" for i in range(cfg.n_users)] + [
        f"n{i:05d}" for i in range(world.n_new_users)
    ]
    terminal_ids = [f"t{i:04d}" for i in range(cfg.n_terminals)]
    width = max(6, len(str(cfg.target_rows)))
    # fixed-width sequential ids in timestamp order: already (timestamp, tx_id) sorted
    return Dataset(
        tx_id=np.array([f"tx{pos:0{width}d}" for pos in range(len(order))], dtype=object),
        timestamp=ts[order],
        user_id=np.array(user_ids, dtype=object)[user[order]],
        terminal_id=np.array(terminal_ids, dtype=object)[terminal[order]],
        amount=amount[order],
        tx_type=np.array(TX_TYPES, dtype=object)[tx_type[order]],
        label=np.array(LABELS, dtype=object)[fraud[order]],
        # scenario -1 (none) picks the trailing ""
        scenario=np.array(SCENARIOS + ("",), dtype=object)[scenario[order]],
    )


def describe(d: Dataset) -> dict:
    """Row, fraud, per-scenario, and per-day counts; JSON-ready. The fraud
    rate is None when no row carries a label."""
    scenarios, per_scenario = np.unique(d.scenario[d.scenario != ""], return_counts=True)
    days, per_day = np.unique(d.timestamp // DAY, return_counts=True)
    day_names = [
        datetime.fromtimestamp(int(day) * DAY, tz=timezone.utc).strftime("%Y-%m-%d") for day in days
    ]
    fraud = int((d.label == "fraud").sum())
    return {
        "rows": len(d),
        "fraud_count": fraud,
        "fraud_rate": fraud / len(d) if (d.label != "").any() else None,
        "per_scenario": dict(zip(scenarios.tolist(), per_scenario.tolist())),
        "per_day_volume": dict(zip(day_names, per_day.tolist())),
    }
