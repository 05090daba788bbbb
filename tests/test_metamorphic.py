"""Metamorphic relations over a whole run.

Each test feeds a transformed copy of a base run's dataset.csv back in
through input_csv and compares the two runs file by file. No reference
implementation is needed: the transformation must leave the outputs as
the relation says.
"""

import csv
import json
import random

import pytest

from timetrail.pipeline import config_from_dict, run_all

PARTS = ("train", "val", "test")
# The CSVs whose rows carry user and terminal ids, and a timestamp.
ID_FILES = (
    "dataset.csv",
    "cleansed.csv",
    *(f"split_{p}.csv" for p in PARTS),
    *(f"enriched_{p}.csv" for p in PARTS),
)
# Every CSV column that holds a time, by file.
TIME_COLUMNS = {
    **{name: ("timestamp",) for name in ID_FILES},
    "heatmap_all.csv": ("window_start", "window_end"),
    "dynamic_corr.csv": ("window_start", "window_end"),
    "flag_series.csv": ("window_start",),
}


def _config(out_dir, input_csv=None):
    doc = {
        "seed": 7,
        "out_dir": str(out_dir),
        "input_csv": None if input_csv is None else str(input_csv),
        "generator": {"n_users": 150, "n_terminals": 20, "target_rows": 10_000},
        "cleanse": {"remove_outliers": False},
    }
    return config_from_dict(doc)


def _digests(entries):
    return {e["path"]: e["sha256"] for e in entries}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """A 10k-row generated run and its artifacts' digests."""
    out = tmp_path_factory.mktemp("metamorphic") / "base"
    digests = _digests(run_all(_config(out)))
    assert any(name.startswith("sequence_") for name in digests)  # explain wrote some
    return out, digests


def test_shuffled_input_rows_change_no_artifact(base_run, tmp_path):
    out, digests = base_run
    header, rows = _read(out / "dataset.csv")
    shuffled = tmp_path / "shuffled.csv"
    _write(shuffled, header, random.Random(7).sample(rows, len(rows)))
    assert _digests(run_all(_config(tmp_path / "out", shuffled))) == digests


def _bijection(ids, prefix, rng):
    """Each id to a new name, in a random order relative to the old names."""
    ids = sorted(set(ids))
    return dict(zip(ids, (f"{prefix}{k:04d}" for k in rng.sample(range(len(ids)), len(ids)))))


def test_renamed_users_and_terminals_change_only_the_ids(base_run, tmp_path):
    out, digests = base_run
    header, rows = _read(out / "dataset.csv")
    u, t = header.index("user_id"), header.index("terminal_id")
    rng = random.Random(7)
    users = _bijection((r[u] for r in rows), "person", rng)
    terminals = _bijection((r[t] for r in rows), "till", rng)

    def renamed(path):
        header, rows = _read(path)
        assert (header.index("user_id"), header.index("terminal_id")) == (u, t)
        for r in rows:
            r[u], r[t] = users[r[u]], terminals[r[t]]
        return header, rows

    source = tmp_path / "renamed.csv"
    _write(source, *renamed(out / "dataset.csv"))
    run = tmp_path / "out"
    got = _digests(run_all(_config(run, source)))
    assert got.keys() == digests.keys()
    for name in digests:
        if name in ID_FILES:
            # the same rows in the same order, every other column equal
            assert _read(run / name) == renamed(out / name), name
        else:
            assert got[name] == digests[name], name


def _moved(path, columns, shift):
    """The CSV's rows with `shift` added to each of the named columns."""
    header, rows = _read(path)
    at = [header.index(c) for c in columns]
    for r in rows:
        for i in at:
            r[i] = str(int(r[i]) + shift)
    return header, rows


def test_shifting_every_timestamp_by_whole_weeks_moves_only_the_times(base_run, tmp_path):
    # whole weeks keep every hour of day and day of week
    shift = 3 * 7 * 86400
    out, digests = base_run
    source = tmp_path / "shifted.csv"
    _write(source, *_moved(out / "dataset.csv", ("timestamp",), shift))
    run = tmp_path / "out"
    got = _digests(run_all(_config(run, source)))
    assert got.keys() == digests.keys()
    # the scalers, models, evaluations, TIS, explanations and plots do not
    # see the clock: every file that holds no time keeps its bytes
    for name in sorted(digests.keys() - TIME_COLUMNS.keys() - {"heatmap_all.json"}):
        assert got[name] == digests[name], name
    # every attribute, coefficient and flag count is equal, and every time,
    # window start and window end moves by exactly the shift
    for name, columns in TIME_COLUMNS.items():
        assert _read(run / name) == _moved(out / name, columns, shift), name
    base, moved = (json.loads((d / "heatmap_all.json").read_text(encoding="utf-8")) for d in (out, run))
    assert moved["values"] == base["values"]
    assert moved["window"] == {k: v + shift for k, v in base["window"].items()}
