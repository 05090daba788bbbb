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
from timetrail.pipeline import STAGES, explained_rows, load_config, read_enriched_csv, run_stage


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
    written = [rel for stage in STAGES for rel, _ in run_stage(cfg, stage)]
    manifest = json.loads((full_run / "manifest.json").read_text(encoding="utf-8"))
    assert written == [e["path"] for e in manifest]
    for entry in manifest:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"], entry["path"]


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
    with pytest.raises(ValueError, match=re.escape(f"enriched_test.csv: line {line}: tx_id 'x/../../../escaped_")):
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
    """generate, preprocess and enrich on input where two rows share tx_id t030."""
    lines = ["tx_id,timestamp,user_id,terminal_id,amount,tx_type,label"]
    for i in range(40):
        lines.append(f"t{i:03d},{1672531200 + i * 3600},u{i % 10},k{i % 3},{10 + i}.5,purchase,legit")
    lines.append(f"t030,{1672531200 + 30 * 3600 + 60},u9,k2,99.5,transfer,legit")
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


def test_enrich_rejects_splits_that_do_not_follow_cleansed(tmp_path, capsys):
    cfg, out = _duplicate_id_run(tmp_path)
    (out / "split_test.csv").write_bytes((out / "split_val.csv").read_bytes())
    assert main(["enrich", "--config", cfg]) == 1
    assert "split_test.csv" in capsys.readouterr().err


def test_enrich_rejects_split_with_bad_header(tmp_path, capsys):
    cfg, out = _duplicate_id_run(tmp_path)
    split = out / "split_val.csv"
    split.write_text(split.read_text(encoding="utf-8").replace("tx_id,", "txid,", 1), encoding="utf-8")
    assert main(["enrich", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "split_val.csv" in err and "bad header" in err


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


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run-all", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["run-all", "--config", str(tmp_path / "nope.json")]) == 2


def test_stage_without_inputs_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config(tmp_path / "empty"))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(["defraud", "--config", cfg])
    assert exc.value.code == 2


def test_bad_threshold_rejected_before_any_work(tmp_path, capsys):
    doc = tiny_config(tmp_path / "out")
    doc["threshold"] = 1.5
    cfg = write_config(tmp_path, doc)
    assert main(["run-all", "--config", cfg]) == 1
    assert "threshold" in capsys.readouterr().err
    assert not Path(tmp_path / "out").exists()
