"""End-to-end command line tests, run in process through cli.main."""

import csv
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from timetrail.cli import main
from timetrail.data import load_transactions
from timetrail.enrich import ATTRIBUTE_NAMES, enrich
from timetrail.pipeline import (
    STAGES,
    config_from_dict,
    explained_rows,
    load_config,
    read_enriched_csv,
    run_stage,
)


def tiny_config(out_dir, seed=0):
    # one month, 1200 rows: big enough to train on, small enough for tests
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "generator": {
            "n_users": 40,
            "n_terminals": 8,
            "target_rows": 1200,
            "fraud_rate": 0.02,
            "period": [1672531200, 1675123200],
            "seed": 7,
        },
        "correlation": {"window_seconds": 86400, "stride_seconds": 86400},
        "top_k_explanations": 2,
    }


# JSON nested too deeply to read, built by joining text, as json.dumps
# recurses too: tree 0 of a model as a chain of 3,000 splits, a heatmap's
# attributes as lists nested 3,000 deep, and a config as objects nested
# 100,000 deep. Up to 3.11 json's decoder stops at sys.getrecursionlimit();
# from 3.12 it has its own, higher C limit and may read 3,000 levels, and then
# the model loader's recursion or the heatmap renderer refuses the file by its
# path. A config that decodes would fail on its first unknown field instead,
# so it is nested past the decoder's limit on every supported Python.
DEEP = 3000
DEEP_MODEL = (
    '{"format_version": 1, "type": "gbt", "feature_names": ["amount"], "base_score": 0.0, '
    '"learning_rate": 0.1, "trees": ['
    + '{"value": 0.0, "feature": 0, "threshold": 0.5, "left": ' * DEEP
    + '{"value": 0.0}'
    + ', "right": {"value": 0.0}}' * DEEP
    + "]}"
)
DEEP_HEATMAP = '{"attributes": ' + "[" * DEEP + "]" * DEEP + ', "window": null, "values": []}'
DEEP_CONFIG = '{"generator": ' * 100_000 + "{}" + "}" * 100_000


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One complete pipeline run shared by the read-only assertions below."""
    tmp = tmp_path_factory.mktemp("cli_full")
    out = tmp / "out"
    cfg = write_config(tmp, tiny_config(out))
    code = main(["run-all", "--config", cfg])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# happy paths


def test_generate_writes_exact_fraud_count(tmp_path):
    out = tmp_path / "out"
    doc = tiny_config(out)
    doc["generator"]["target_rows"] = 10_000
    doc["generator"]["fraud_rate"] = 0.0013
    cfg = write_config(tmp_path, doc)
    assert main(["generate", "--config", cfg]) == 0
    with open(out / "dataset.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10_000
    assert sum(1 for r in rows if r["label"] == "fraud") == 13


def test_run_stage_one_stage_at_a_time_writes_what_run_all_writes(tmp_path, full_run):
    out = tmp_path / "not" / "yet"  # run_stage makes the directory
    cfg = load_config(write_config(tmp_path, tiny_config(out)))
    written = [pair for stage in STAGES for pair in run_stage(cfg, stage)]
    manifest = json.loads((full_run / "manifest.json").read_text(encoding="utf-8"))
    assert written == [(e["path"], e["stage"]) for e in manifest]
    for entry in manifest:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"], entry["path"]


def test_explain_and_plot_need_no_baseline_files(tmp_path, full_run):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    (out / "scaler_baseline.json").unlink()
    (out / "model_baseline.json").unlink()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    expected = {e["path"]: e["sha256"] for e in manifest if e["stage"] in ("explain", "plot")}
    for rel in expected:
        (out / rel).unlink()
    cfg = load_config(write_config(tmp_path, tiny_config(out)))
    written = [rel for stage in ("explain", "plot") for rel, _ in run_stage(cfg, stage)]
    assert written == list(expected)
    for rel, digest in expected.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel


def test_run_all_writes_manifest_with_true_hashes(full_run):
    manifest = json.loads((full_run / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest) > 20
    names = {e["path"] for e in manifest}
    assert "manifest.json" not in names  # the manifest never lists itself
    for entry in manifest:
        blob = (full_run / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert entry["stage"] in STAGES


def test_expected_artifacts_exist(full_run):
    for name in (
        "dataset.csv",
        "cleansed.csv",
        "cleanse_report.json",
        "split_train.csv",
        "enriched_test.csv",
        "heatmap_all.csv",
        "heatmap_all.json",
        "heatmap_all.svg",
        "dynamic_corr.csv",
        "model_baseline.json",
        "model_timetrail.json",
        "eval_baseline.json",
        "eval_timetrail.json",
        "comparison.csv",
        "comparison.txt",
        "tis_report.json",
        "flag_series.csv",
        "flag_series.svg",
        "tis_hist.csv",
        "tis_hist.svg",
    ):
        assert (full_run / name).exists(), name


def test_baseline_model_sees_no_temporal_features(full_run):
    base = json.loads((full_run / "model_baseline.json").read_text(encoding="utf-8"))
    rich = json.loads((full_run / "model_timetrail.json").read_text(encoding="utf-8"))
    assert base["type"] == "logistic"
    assert rich["type"] == "gbt"
    assert not set(base["feature_names"]) & set(ATTRIBUTE_NAMES)
    assert set(ATTRIBUTE_NAMES) <= set(rich["feature_names"])


def test_comparison_csv_lists_all_metrics(full_run):
    lines = (full_run / "comparison.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "metric,baseline,timetrail"
    assert len(lines) == 8  # seven metrics under the header
    assert {ln.split(",")[0] for ln in lines[1:]} == {
        "accuracy", "precision", "recall", "f1", "auc_roc", "average_precision", "tis",
    }


def test_explanations_cover_top_flagged(full_run):
    sequences = sorted(full_run.glob("sequence_*.json"))
    assert len(sequences) <= 2  # top_k_explanations
    for path in sequences:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["probability"] >= 0.5
        assert path.with_suffix(".svg").exists()


def test_plot_renders_only_this_runs_sequences(full_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    explained = sorted(e["path"] for e in manifest if e["stage"] == "explain")
    assert explained  # the tiny run flags rows, so there is something to plot
    (out / "sequence_stale0.json").write_bytes((out / explained[0]).read_bytes())
    paths = run_stage(load_config(write_config(tmp_path, tiny_config(out))), "plot")
    rendered = [p for p, _ in paths if p.startswith("sequence_")]
    assert rendered == [p.removesuffix(".json") + ".svg" for p in explained]
    assert not (out / "sequence_stale0.svg").exists()


def test_explain_rejects_a_tx_id_that_leaves_the_out_dir(full_run, tmp_path):
    out = tmp_path / "a" / "b" / "out"
    shutil.copytree(full_run, out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    explained = sorted(e["path"] for e in manifest if e["stage"] == "explain")
    tx_id = explained[0].removeprefix("sequence_").removesuffix(".json")
    # unchecked, this tx_id makes explain create sequence_x/ in out and write
    # the sequence two directories above out
    enriched = out / "enriched_test.csv"
    text = enriched.read_text(encoding="utf-8")
    assert text.count(f"\n{tx_id},") == 1
    enriched.write_text(text.replace(f"\n{tx_id},", f"\nx/../../../escaped_{tx_id},"), encoding="utf-8")
    line = text[: text.index(f"\n{tx_id},")].count("\n") + 2
    cfg = load_config(write_config(tmp_path, tiny_config(out)))
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ValueError, match=re.escape(f"enriched_test.csv: line {line}, field 'tx_id': 'x/../../../escaped_")):
        run_stage(cfg, "explain")
    assert sorted(tmp_path.rglob("*")) == before


def test_explained_rows_rank_flagged_rows_and_keep_one_per_tx_id():
    probs = np.array([0.9, 0.95, 0.6, 0.4, 0.95, 0.7, 0.6])
    ids = ("b", "a", "c", "d", "a", "b", "bb")
    # by (-prob, tx_id): 1 (a), 4 (a again), 0 (b), 5 (b again), 6 (bb), 2 (c);
    # 3 is not flagged
    assert explained_rows(probs, ids, 0.5, 10) == [1, 0, 6, 2]
    assert explained_rows(probs, ids, 0.5, 2) == [1, 0]
    assert explained_rows(probs, ids, 0.5, 3) == [1, 0, 6]
    assert explained_rows(probs, ids, 0.5, 0) == []
    assert explained_rows(probs, ids, 0.96, 5) == []


def test_stagewise_run_reproduces_run_all(full_run, tmp_path):
    out = tmp_path / "stagewise"
    cfg = write_config(tmp_path, tiny_config(out))
    for stage in STAGES:
        assert main([stage.replace("_", "-"), "--config", cfg]) == 0
    for name in ("dataset.csv", "enriched_test.csv", "comparison.csv", "tis_report.json"):
        assert (out / name).read_bytes() == (full_run / name).read_bytes()


def test_run_all_is_reproducible(tmp_path):
    cfg_a = write_config(tmp_path, tiny_config(tmp_path / "a"), "a.json")
    cfg_b = write_config(tmp_path, tiny_config(tmp_path / "b"), "b.json")
    assert main(["run-all", "--config", cfg_a]) == 0
    assert main(["run-all", "--config", cfg_b]) == 0
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b


def test_seed_override_changes_generated_data(tmp_path):
    doc = tiny_config(tmp_path / "x")
    del doc["generator"]["seed"]  # let the run seed cascade into the generator
    cfg = write_config(tmp_path, doc)
    assert main(["generate", "--config", cfg]) == 0
    first = (tmp_path / "x" / "dataset.csv").read_bytes()
    assert main(["generate", "--config", cfg, "--seed", "99"]) == 0
    assert (tmp_path / "x" / "dataset.csv").read_bytes() != first


def test_out_override_redirects_artifacts(tmp_path):
    cfg = write_config(tmp_path, tiny_config(tmp_path / "ignored"))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "elsewhere")]) == 0
    assert (tmp_path / "elsewhere" / "dataset.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_ingests_existing_csv(tmp_path, full_run):
    doc = tiny_config(tmp_path / "out2")
    doc["input_csv"] = str(full_run / "dataset.csv")
    cfg = write_config(tmp_path, doc)
    assert main(["generate", "--config", cfg]) == 0
    assert (tmp_path / "out2" / "dataset.csv").read_bytes() == (
        full_run / "dataset.csv"
    ).read_bytes()


def _duplicate_id_run(tmp_path):
    """generate, preprocess and enrich on input where two rows share tx_id t030
    and three share t024's timestamp, on which the train/val cut falls."""
    lines = ["tx_id,timestamp,user_id,terminal_id,amount,tx_type,label"]
    for i in range(40):
        lines.append(f"t{i:03d},{1672531200 + i * 3600},u{i % 10},k{i % 3},{10 + i}.5,purchase,legit")
    lines.append(f"t030,{1672531200 + 30 * 3600 + 60},u9,k2,99.5,transfer,legit")
    for tie in ("a", "b"):
        lines.append(f"t024{tie},{1672531200 + 24 * 3600},u{tie},k1,7.5,deposit,legit")
    src = tmp_path / "input.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = tiny_config(tmp_path / "out")
    doc["input_csv"] = str(src)
    doc["cleanse"] = {"dedupe_key": "composite", "remove_outliers": False}
    cfg = write_config(tmp_path, doc)
    for stage in ("generate", "preprocess", "enrich"):
        assert main([stage, "--config", cfg]) == 0
    return cfg, tmp_path / "out"


def test_duplicate_tx_ids_keep_their_own_rows(tmp_path):
    _, out = _duplicate_id_run(tmp_path)

    def rows_of(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return [(r["tx_id"], r["user_id"], r["amount"], r["tx_type"]) for r in csv.DictReader(fh)]

    cleansed = rows_of("cleansed.csv")
    assert [r[1] for r in cleansed if r[0] == "t030"] == ["u0", "u9"]
    enriched = [r for p in ("train", "val", "test") for r in rows_of(f"enriched_{p}.csv")]
    assert enriched == cleansed

    want = enrich(load_transactions(out / "cleansed.csv"))
    parts = [read_enriched_csv(out / f"enriched_{p}.csv") for p in ("train", "val", "test")]
    for name in ATTRIBUTE_NAMES:
        got = [v for part in parts for v in getattr(part, name).tolist()]
        assert got == getattr(want, name).tolist(), name


def test_enrich_cuts_as_preprocess_did_without_the_split_files(tmp_path):
    cfg, out = _duplicate_id_run(tmp_path)

    def base_rows(text):
        return [r[:7] for r in csv.reader(text.splitlines())]

    splits = {p: (out / f"split_{p}.csv").read_text(encoding="utf-8") for p in ("train", "val", "test")}
    for p in splits:
        (out / f"split_{p}.csv").unlink()
        (out / f"enriched_{p}.csv").unlink()
    assert main(["enrich", "--config", cfg]) == 0
    for p, text in splits.items():
        assert base_rows((out / f"enriched_{p}.csv").read_text(encoding="utf-8")) == base_rows(text)
    # of 43 rows, int(43 * 0.6) = 25 end on t024's tie run, which train keeps whole
    train = base_rows(splits["train"])[1:]
    assert len(train) == 27 and [r[0] for r in train[-3:]] == ["t024", "t024a", "t024b"]


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_config_field_names_the_culprit(tmp_path, capsys):
    doc = tiny_config(tmp_path / "out")
    doc["generator"]["n_userz"] = 5
    cfg = write_config(tmp_path, doc)
    assert main(["generate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "generator.n_userz" in err


def test_unknown_top_level_field(tmp_path, capsys):
    doc = tiny_config(tmp_path / "out")
    doc["thresholdz"] = 0.5
    cfg = write_config(tmp_path, doc)
    assert main(["run-all", "--config", cfg]) == 1
    assert "thresholdz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, literal",
    [
        ("gbt", "l2", "NaN"),
        ("gbt", "min_child_weight", "NaN"),
        ("logistic", "l2", "NaN"),
        ("logistic", "tol", "NaN"),
        (None, "undersample_ratio", "NaN"),
        (None, "undersample_ratio", "Infinity"),
        ("cleanse", "iqr_k", "Infinity"),
        ("generator", "scenario_mix", "NaN"),
    ],
)
def test_non_finite_config_numbers_are_rejected_by_name(tmp_path, capsys, section, field, literal):
    doc = tiny_config(tmp_path / "out")
    value = {"burst": 1.0, "night_owl": 0.0} if field == "scenario_mix" else 1.0
    (doc.setdefault(section, {}) if section else doc)[field] = value
    # json.load reads the bare literals NaN and Infinity
    text = json.dumps(doc).replace("1.0", literal, 1)
    assert literal in text
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run-all", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert field in err and "must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("gbt.n_trees", 2.5),
        ("gbt.max_depth", 2.5),
        ("gbt.l2", "1"),
        pytest.param("gbt.l2", 10**400, id="gbt.l2-past-the-float-range"),
        ("cleanse.iqr_k", "3"),
        ("cleanse.remove_outliers", "false"),
        ("top_k_explanations", 2.7),
        ("top_k_explanations", "3"),
        ("top_k_explanations", True),
        ("seed", 7.9),
        ("seed", "7"),
        ("threshold", "0.5"),
        ("undersample_ratio", "10"),
        ("generator.n_users", 10.5),
        ("generator.scenario_mix.burst", "1"),
        ("input_csv", 5),
        ("out_dir", 5),
        ("correlation.stride_seconds", 1.5),
        ("logistic.max_epochs", 10.5),
        ("generator.n_users", 10**30),
        ("gbt.n_trees", 2**70),
        ("top_k_explanations", 10**40),
        ("correlation.window_seconds", 1e30),
        ("seed", -(2**63) - 1),
        ("seed", -1),
        ("generator.seed", -1),
        ("generator.period", [1672531200, 2**70]),
    ],
)
def test_mistyped_config_field_is_rejected_by_name(tmp_path, capsys, monkeypatch, dotted, value):
    monkeypatch.chdir(tmp_path)  # an out_dir of 5 would land here
    doc = tiny_config(tmp_path / "out")
    *sections, key = dotted.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    cfg = write_config(tmp_path, doc)
    assert main(["run-all", "--config", cfg]) == 1
    err = capsys.readouterr().err
    # a list item is named by its index: generator.period[1]
    assert re.search(rf"config field '{re.escape(dotted)}(\[\d+\])?'", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_integer_fields_take_the_whole_int64_range(tmp_path):
    doc = tiny_config(tmp_path / "out")
    doc["top_k_explanations"] = 2**63 - 1
    doc["gbt"] = {"n_trees": 2**63 - 1}
    doc["seed"] = 2**63 - 1
    cfg = config_from_dict(doc)
    assert cfg.top_k_explanations == cfg.gbt.n_trees == cfg.seed == 2**63 - 1
    with pytest.raises(ValueError, match=r"config field 'gbt.n_trees' must be an integer within int64, got 9223372036854775808"):
        config_from_dict(doc | {"gbt": {"n_trees": 2**63}})
    # int64's lowest value is read, then rejected: a seed is never negative
    with pytest.raises(ValueError, match=r"config field 'seed' must be non-negative, got -9223372036854775808"):
        config_from_dict(doc | {"seed": -(2**63)})


def test_integer_field_takes_a_real_with_no_fraction(tmp_path):
    text = json.dumps(tiny_config(tmp_path / "out")).replace('"target_rows": 1200', '"target_rows": 5e4')
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    rows = load_config(path).generator.target_rows
    assert rows == 50000 and type(rows) is int


@pytest.mark.parametrize(
    "key, integer, real",
    [("learning_rate", 1, 1.0), pytest.param("l2", 10**300, 1e300, id="l2-10**300")],
)
def test_real_field_reads_an_integer_as_the_same_real(tmp_path, key, integer, real):
    # the JSON integer trains the model its real does, byte for byte
    models = []
    for value in (integer, real):
        out = tmp_path / type(value).__name__
        cfg = load_config(write_config(tmp_path, tiny_config(out) | {"gbt": {key: value}}))
        assert type(getattr(cfg.gbt, key)) is float
        for stage in STAGES[: STAGES.index("train") + 1]:
            run_stage(cfg, stage)
        models.append((out / "model_timetrail.json").read_bytes())
    assert models[0] == models[1]


def test_period_at_or_before_the_epoch_is_rejected(tmp_path, capsys):
    doc = tiny_config(tmp_path / "out")
    doc["generator"]["period"] = [-86400, 432000]
    cfg = write_config(tmp_path, doc)
    assert main(["run-all", "--config", cfg]) == 1
    assert "period must start at epoch second 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_temporal_features_is_not_a_config_field(tmp_path):
    doc = tiny_config(tmp_path / "out") | {"temporal_features": list(ATTRIBUTE_NAMES)}
    with pytest.raises(ValueError, match=r"^unknown config field 'temporal_features'$"):
        config_from_dict(doc)


def test_enrich_is_not_a_config_field(tmp_path, capsys):
    doc = tiny_config(tmp_path / "out") | {"enrich": {"recency_cap_seconds": 86400}}
    assert main(["run-all", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "error: unknown config field 'enrich'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_readme_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    cfg = config_from_dict(json.loads(blocks[0]))
    assert cfg.generator.target_rows == 50000 and cfg.cleanse.remove_outliers is False


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    assert len(scope["features"]) == len(scope["train"]) > 0


@pytest.mark.parametrize("text", ["{not json", DEEP_CONFIG, b'{"seed": "\xff"}'], ids=["syntax", "deep", "not-utf8"])
def test_invalid_json_config(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["run-all", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON")
    assert "Traceback" not in err


@pytest.mark.parametrize("row", [1, -2], ids=["first-row", "last-row"])
@pytest.mark.parametrize(
    "stage, name, source",
    [("generate", "input.csv", "dataset.csv"), ("evaluate", "enriched_test.csv", "enriched_test.csv")],
)
def test_csv_file_that_is_not_utf8_names_its_path(full_run, tmp_path, capsys, stage, name, source, row):
    # the last row lies past the text decoder's first chunk, whose positions
    # are not the file's
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    lines = (out / source).read_bytes().split(b"\n")  # the last item is empty
    lines[row] = lines[row].replace(b",", b",\xff", 1)
    data = b"\n".join(lines)
    (out / name).write_bytes(data)
    doc = tiny_config(out)
    doc["input_csv"] = str(out / name)
    assert main([stage, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    line, offset = row % len(lines) + 1, data.index(b"\xff")
    assert offset > 8192 or row == 1
    assert err.startswith(
        f"error: {out / name}: line {line}: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)"
    )
    assert "Traceback" not in err


def test_missing_config_file(tmp_path):
    assert main(["run-all", "--config", str(tmp_path / "nope.json")]) == 2


def test_stage_without_inputs_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config(tmp_path / "empty"))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_input_field_over_the_csv_limit_names_the_file_and_line(tmp_path, capsys):
    src = tmp_path / "input.csv"
    src.write_text(
        "tx_id,timestamp,user_id,terminal_id,amount,tx_type\n"
        "t0,1672531200,u0,k0,1.5,purchase\n"
        f"t1,1672531260,{'u' * 200_000},k0,2.5,purchase\n",
        encoding="utf-8",
    )
    doc = tiny_config(tmp_path / "out")
    doc["input_csv"] = str(src)
    assert main(["generate", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: line 3: field larger than field limit")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "stage, name, text",
    [
        ("explain", "model_timetrail.json", '{"format_version": 1, "type": "gbt"}'),
        ("evaluate", "model_baseline.json", "{not json"),
        ("explain", "scaler_timetrail.json", "[]"),
        ("plot", "heatmap_all.json", '{"attributes": []}'),
        ("plot", "tis_report.json", "{}"),
        ("plot", "sequence_*.json", '{"tx_id": "t0"}'),
        ("plot", "heatmap_all.json", '{"attributes": ["a", "b"], "window": null, "values": [[1.0, NaN], [0.5, 1.0]]}'),
        ("plot", "sequence_*.json", '{"tx_id": "t0", "bias": 0.0, "margin": Infinity, "probability": 0.5, "steps": []}'),
        pytest.param("explain", "model_timetrail.json", DEEP_MODEL, id="explain-deep-model"),
        pytest.param("plot", "heatmap_all.json", DEEP_HEATMAP, id="plot-deep-heatmap"),
    ],
)
def test_malformed_json_artifact_names_its_path(full_run, tmp_path, capsys, stage, name, text):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = sorted(out.glob(name))[0]  # sequence_*.json: the first sequence plot renders
    path.write_text(text, encoding="utf-8")
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "stage, source, name",
    [
        ("explain", "model_baseline.json", "model_timetrail.json"),
        ("plot", "model_baseline.json", "model_timetrail.json"),
        ("explain", "scaler_baseline.json", "scaler_timetrail.json"),
        ("evaluate", "model_timetrail.json", "model_baseline.json"),
    ],
)
def test_artifact_that_does_not_fit_the_run_names_its_path(
    full_run, tmp_path, capsys, stage, source, name
):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    shutil.copyfile(out / source, out / name)
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / name}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "stage, key, value",
    [
        ("evaluate", "maxs", float("nan")),
        ("explain", "maxs", float("nan")),
        ("explain", "mins", float("-inf")),
        ("plot", "maxs", float("inf")),
    ],
)
def test_scaler_with_a_non_finite_end_names_its_path_and_feature(
    full_run, tmp_path, capsys, stage, key, value
):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "scaler_timetrail.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key][-1] = value
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity, as json writes them
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    feature = doc["feature_names"][-1]
    assert err.startswith(f"error: {path}: scaler {key} of {feature!r} is {value}, not finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["evaluate", "explain", "plot"])
def test_scaler_with_a_min_above_its_max_names_its_path_and_feature(full_run, tmp_path, capsys, stage):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "scaler_timetrail.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["mins"][-1] = doc["maxs"][-1] + 5
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    feature, low = doc["feature_names"][-1], float(doc["mins"][-1])
    assert err.startswith(f"error: {path}: scaler min of {feature!r} is {low}, above its max")
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["evaluate", "explain", "plot"])
def test_model_file_with_permuted_features_names_its_path(full_run, tmp_path, capsys, stage):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "model_timetrail.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    last = len(doc["feature_names"]) - 1

    def mirror(node):  # the same split, on the feature's place in the reversed list
        if "feature" in node:
            node["feature"] = last - node["feature"]
            mirror(node["left"])
            mirror(node["right"])

    doc["feature_names"].reverse()
    for tree in doc["trees"]:
        mirror(tree)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: feature schema mismatch")
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["evaluate", "explain", "plot"])
@pytest.mark.parametrize(
    "key, value, detail",
    [
        ("feature", 10**30, "tree 0 splits on feature 1000000000000000000000000000000, outside the 14 names"),
        ("feature", 3.5, "tree 0 splits on feature 3.5, outside the 14 names"),
        ("feature", True, "tree 0 splits on feature True, outside the 14 names"),
        ("threshold", 10**400, "int too large to convert to float"),
    ],
    ids=["feature-past-intp", "feature-not-integer", "feature-bool", "threshold-past-float"],
)
def test_model_file_with_a_split_that_does_not_read_names_its_path(
    full_run, tmp_path, capsys, stage, key, value, detail
):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "model_timetrail.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["trees"][0][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {detail}")
    assert "Traceback" not in err


def test_logistic_model_with_a_weight_short_names_its_path(full_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "model_baseline.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["weights"].pop()
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: model weights must be a list of 5 numbers, one per feature name")
    assert "Traceback" not in err


def test_enrich_names_the_cleansed_file_and_line_of_a_blank_mandatory_field(full_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "cleansed.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rows[1][header.index("user_id")] = ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert main(["enrich", "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3, field 'user_id': missing value")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "stage, name", [("train", "enriched_train.csv"), ("evaluate", "enriched_test.csv"), ("plot", "enriched_test.csv")]
)
def test_unlabeled_test_split_is_refused(full_run, tmp_path, capsys, stage, name):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / name
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rows[0][header.index("label")] = ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    # the files the stage writes are gone, so writing any of them shows
    for entry in json.loads((out / "manifest.json").read_text(encoding="utf-8")):
        if entry["stage"] == stage:
            (out / entry["path"]).unlink()
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([stage, "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2, field 'label': missing value")
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written  # nothing written


def test_plot_names_a_tis_report_whose_value_is_out_of_range(full_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    path = out / "tis_report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["per_tx"][0]["tis"] = 1.5
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plot", "--config", write_config(tmp_path, tiny_config(out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tis value 1.5 outside [0, 1]")
    assert "Traceback" not in err


CORRELATE_FILES = ("heatmap_all.csv", "heatmap_all.json", "dynamic_corr.csv")
INT64_MAX = int(np.iinfo(np.int64).max)


def _last_window_start(run):
    with open(run / "dynamic_corr.csv", newline="", encoding="utf-8") as fh:
        return max(int(row["window_start"]) for row in csv.DictReader(fh))


@pytest.mark.parametrize("past", ["one second", "int64 max"])
def test_correlation_window_ending_past_int64_is_refused_before_any_file(full_run, tmp_path, capsys, past):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    for name in CORRELATE_FILES:
        (out / name).unlink()
    doc = tiny_config(out)
    window = INT64_MAX - _last_window_start(full_run) + 1 if past == "one second" else INT64_MAX
    doc["correlation"]["window_seconds"] = window
    assert main(["correlate", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: correlation.window_seconds {window} ")
    assert "Traceback" not in err
    assert not any((out / name).exists() for name in CORRELATE_FILES)


def test_correlation_window_ending_at_int64_max_runs(full_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    doc = tiny_config(out)
    doc["correlation"]["window_seconds"] = INT64_MAX - _last_window_start(full_run)
    assert main(["correlate", "--config", write_config(tmp_path, doc)]) == 0
    with open(out / "dynamic_corr.csv", newline="", encoding="utf-8") as fh:
        assert max(int(row["window_end"]) for row in csv.DictReader(fh)) == INT64_MAX


def test_unknown_subcommand_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(["defraud", "--config", cfg])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("threshold", 1.5, "threshold must be in (0, 1), got 1.5"),
        (
            "split",
            {"train_frac": 0.6, "val_frac": 0.4},
            "config field 'split': train_frac + val_frac must leave room for test",
        ),
        (
            "correlation",
            {"window_seconds": 86400, "stride_seconds": 172800},
            "config field 'correlation': stride 172800 larger than window 86400 would skip rows",
        ),
        # a rule two sections share is told apart by the section
        ("gbt", {"l2": -1}, "config field 'gbt': l2 must be finite and >= 0, got -1.0"),
        ("logistic", {"l2": -1}, "config field 'logistic': l2 must be finite and >= 0, got -1.0"),
    ],
    ids=["threshold", "split", "correlation", "gbt", "logistic"],
)
def test_bad_threshold_rejected_before_any_work(tmp_path, capsys, key, value, message):
    doc = tiny_config(tmp_path / "out")
    doc[key] = value
    cfg = write_config(tmp_path, doc)
    assert main(["run-all", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not Path(tmp_path / "out").exists()
