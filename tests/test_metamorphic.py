"""Metamorphic relations over a whole run.

Each test feeds a transformed copy of a base run's dataset.csv back in
through input_csv and compares the two runs file by file, or row by row,
matched by tx_id, where the transformation moves the split. No reference
implementation is needed: the transformation must leave the outputs as
the relation says. One more relation holds within the base run: explain
and evaluate give each row the same TIS.
"""

import csv
import json
import random

import pytest

from timetrail.enrich import ATTRIBUTE_NAMES
from timetrail.pipeline import config_from_dict, run_all, run_stage

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


def test_every_sequence_tis_is_its_tis_report_value(base_run):
    # explain sums one row's contributions in a loop, evaluate sums the
    # attribution matrix with numpy: the two may differ in the last bits only
    out, digests = base_run
    report = json.loads((out / "tis_report.json").read_text(encoding="utf-8"))
    per_tx = {p["tx_id"]: p["tis"] for p in report["per_tx"]}
    names = [n for n in digests if n.startswith("sequence_") and n.endswith(".json")]
    assert names
    for name in names:
        seq = json.loads((out / name).read_text(encoding="utf-8"))
        assert abs(seq["tis"] - per_tx[seq["tx_id"]]) <= 1e-12, name


def _attributes(run):
    """tx_id -> the nine attribute cells of the row, over every enriched file."""
    cells = {}
    for part in PARTS:
        header, rows = _read(run / f"enriched_{part}.csv")
        tx, at = header.index("tx_id"), [header.index(a) for a in ATTRIBUTE_NAMES]
        for r in rows:
            cells[r[tx]] = [r[i] for i in at]
    return cells


def _enriched_from(source, out):
    """The attributes a run through enrich gives the rows of source."""
    cfg = _config(out, source)
    for stage in ("generate", "preprocess", "enrich"):
        run_stage(cfg, stage)
    return _attributes(out)


@pytest.mark.parametrize("share", [0.5, 0.8])
def test_rows_up_to_a_time_keep_their_attributes_without_the_later_rows(base_run, tmp_path, share):
    out, _ = base_run
    header, rows = _read(out / "dataset.csv")
    tx, t = header.index("tx_id"), header.index("timestamp")
    # every row of the cut's own second stays: a window (t - w, t] counts
    # same-second peers
    cut = sorted(int(r[t]) for r in rows)[int(share * len(rows))]
    kept = [r for r in rows if int(r[t]) <= cut]
    source = tmp_path / "truncated.csv"
    _write(source, header, kept)
    got, base = _enriched_from(source, tmp_path / "out"), _attributes(out)
    assert got.keys() == base.keys() & {r[tx] for r in kept}
    assert len(got) < len(base)
    assert {k: base[k] for k in got} == got


def test_dropping_users_leaves_the_other_users_attributes(base_run, tmp_path):
    out, _ = base_run
    header, rows = _read(out / "dataset.csv")
    tx, u = header.index("tx_id"), header.index("user_id")
    dropped = set(random.Random(7).sample(sorted({r[u] for r in rows}), 30))
    kept = [r for r in rows if r[u] not in dropped]
    source = tmp_path / "fewer_users.csv"
    _write(source, header, kept)
    got, base = _enriched_from(source, tmp_path / "out"), _attributes(out)
    assert got.keys() == base.keys() & {r[tx] for r in kept}
    # a terminal's count takes every user's rows, so it is exempt, and it
    # shows that the dropped rows were seen
    terminal = ATTRIBUTE_NAMES.index("terminal_tx_count_48h")
    assert any(got[k][terminal] != base[k][terminal] for k in got)
    for k, cells in got.items():
        assert cells[:terminal] + cells[terminal + 1 :] == base[k][:terminal] + base[k][terminal + 1 :], k
