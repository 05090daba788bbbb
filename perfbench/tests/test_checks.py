import shutil
import time
from pathlib import Path

import pytest

import checks
import layers
import rep
import run
from workloads import Workload

# Small enough for a test, large enough that the model flags test rows.
TINY = Workload(name="tiny", rows=10_000, users=150, terminals=20)


def _chain(out: Path, tracer=None, timed=TINY.timed, passes=1) -> dict:
    return rep.run_chain(TINY.config(7, str(out)), timed, time.monotonic(), tracer, passes)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "out"
    return out, _chain(out)


def test_intact_outputs_pass_every_check(tiny_run):
    out, rec = tiny_run
    assert checks.check_outputs(out, TINY.top_k) == []


def test_a_truncated_eval_report_counts_as_a_failed_run(tiny_run, tmp_path):
    out, rec = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    path = bad / "eval_timetrail.json"
    path.write_bytes(path.read_bytes()[:40])
    problems = checks.check_outputs(bad, TINY.top_k)
    assert any("eval_timetrail.json" in p for p in problems)

    records = [
        {"manifest_sha256": rec["manifest_sha256"], "problems": []},
        {"manifest_sha256": rec["manifest_sha256"], "problems": problems},
    ]
    reasons = run.tally(records)
    assert [r["failed"] for r in records] == [False, True]
    assert reasons and all(r.startswith("repetition 2:") for r in reasons)


def test_a_missing_artifact_and_a_changed_manifest_fail(tiny_run, tmp_path):
    out, rec = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    (bad / "flag_series.svg").unlink()
    assert checks.check_outputs(bad, TINY.top_k) == ["missing artifact flag_series.svg"]
    edited = tmp_path / "edited"
    shutil.copytree(out, edited)
    with open(edited / "comparison.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert checks.check_outputs(edited, TINY.top_k) == ["comparison.csv differs from its manifest entry"]

    records = [{"manifest_sha256": "a"}, {"manifest_sha256": "b"}, {"error": "boom"}]
    run.tally(records)
    assert [r["failed"] for r in records] == [False, True, True]


def test_traced_chain_writes_the_same_artifacts_and_restores_the_program(tiny_run, tmp_path):
    import timetrail.explain
    import timetrail.pipeline

    out, rec = tiny_run
    before = timetrail.pipeline.read_enriched_csv
    tracer = layers.Tracer()
    installed, restore = layers.install(tracer)
    try:
        traced = _chain(tmp_path / "traced", tracer, timed=("evaluate", "explain"))
    finally:
        restore()
    assert timetrail.pipeline.read_enriched_csv is before
    assert timetrail.pipeline._STAGE_FUNCS["evaluate"] is timetrail.pipeline.stage_evaluate
    assert not hasattr(timetrail.explain.TISReport.to_json, "__wrapped__")
    assert traced["manifest_sha256"] == rec["manifest_sha256"]

    counts = {"cleansed_rows": rep._rows(out / "cleansed.csv"), "test_rows": rep._rows(out / "enriched_test.csv")}
    metrics = layers.layer_metrics(tracer, installed, counts)
    listed = set(layers.PER_LAYER_METRICS) - {*layers.QUALITY_METRICS, layers.OVERHEAD_METRIC}
    assert set(metrics) == listed
    assert metrics["pipeline.enriched_reads_per_row"] == pytest.approx(2.4)
    assert metrics["model.predict_rows_per_test_row"] == pytest.approx(4.0)
    assert metrics["simulate.rows_out"] == TINY.rows
    assert metrics["correlate.dynamic_calls"] == 45
    stage_total = sum(metrics[f"stage.{s}_s"] for s in layers.STAGES)
    self_total = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("stage."))
    run_all_span = tracer.spans[0]
    assert run_all_span.name == layers.RUN_ALL_SPAN
    assert stage_total < self_total == pytest.approx(run_all_span.end - run_all_span.start)
    # The timed part holds the two stages and run_all's hashing of their artifacts.
    timed_stages = metrics["stage.evaluate_s"] + metrics["stage.explain_s"]
    assert timed_stages < traced["pipeline_s"] < timed_stages + metrics["pipeline.glue_s"]
    assert traced["setup_s"] > metrics["stage.train_s"]


def test_repeated_passes_rewrite_the_artifacts_the_manifest_names(tiny_run, tmp_path):
    out, rec = tiny_run
    again = _chain(tmp_path / "again", timed=("evaluate", "explain"), passes=3)
    assert again["manifest_sha256"] == rec["manifest_sha256"]
    assert checks.check_manifest(tmp_path / "again") == []


def test_a_repetition_that_raises_is_counted_not_dropped():
    rec = run.run_rep("no-such-workload", 7, False, time.monotonic() + 60)
    assert "KeyError" in rec["error"]
    records = [rec]
    run.tally(records)
    assert records[0]["failed"]
