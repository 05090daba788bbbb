"""One repetition of a workload, in its own process; run.py starts it.

Prints one JSON object: the repetition's timings, peak RSS, quality, manifest
digest, the problems its output checks found and, when traced, its per-layer
metrics. Exits 1 (after printing) when the chain raised.

    python3 perfbench/rep.py --workload desk --seed 7 --out DIR --spawned-at T [--trace]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def run_chain(cfg_doc: dict, timed, spawned_at: float, tracer=None, passes: int = 1) -> dict:
    """timetrail's run_all, with the clock on the timed stages.

    Each entry of run_all's stage table is rebound for the call, to note when
    the stage starts (and, when traced, to open its span). The timed part runs
    from the start of the first timed stage to the start of the stage after
    the last timed one, so it holds run_all's hashing of the timed stages'
    artifacts; when the timed stages run to the last one, it ends when run_all
    returns, with the manifest written. setup_s runs from spawned_at (the
    parent's clock just before it started this process) to the first timed
    stage.

    Each further pass runs the timed stages again after run_all, hashing
    their artifacts as run_all does; pipeline_s is the median pass. The
    artifacts they rewrite are checked against the manifest afterwards.
    """
    import timetrail.pipeline as pipeline

    from layers import RUN_ALL_SPAN, STAGE_SPAN, STAGES

    call = tracer.run if tracer is not None else (lambda _name, fn, *a: fn(*a))
    starts: dict[str, float] = {}
    table = pipeline._STAGE_FUNCS
    originals = dict(table)

    def clocked(stage, fn):
        def stage_fn(cfg):
            starts[stage] = time.monotonic()
            return call(STAGE_SPAN.format(stage), fn, cfg)

        return stage_fn

    table.update({stage: clocked(stage, fn) for stage, fn in originals.items()})
    cfg = pipeline.config_from_dict(cfg_doc)
    try:
        call(RUN_ALL_SPAN, pipeline.run_all, cfg)
    finally:
        table.update(originals)
    returned = time.monotonic()
    after = STAGES[STAGES.index(timed[-1]) + 1:]
    t0 = starts[timed[0]]
    times = [(starts[after[0]] if after else returned) - t0]
    for _ in range(passes - 1):
        t = time.monotonic()
        for stage in timed:
            for rel, _ in pipeline.run_stage(cfg, stage):
                pipeline._sha256_of(Path(cfg.out_dir) / rel)
        times.append(time.monotonic() - t)
    manifest = (Path(cfg.out_dir) / "manifest.json").read_bytes()
    return {
        "setup_s": t0 - spawned_at,
        "pipeline_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest_sha256": hashlib.sha256(manifest).hexdigest(),
    }


def repetition(workload, seed: int, out: Path, spawned_at: float, trace: bool) -> dict:
    import numpy

    import checks
    import layers

    tracer = layers.Tracer() if trace else None
    installed, restore = layers.install(tracer) if trace else ([], lambda: None)
    # A traced repetition makes one pass, so its counts are those of run_all.
    passes = 1 if trace else workload.passes
    try:
        rec = run_chain(workload.config(seed, str(out)), workload.timed, spawned_at, tracer, passes)
    finally:
        restore()
    rec["rows_in"] = _rows(out / workload.input_file)
    rec["problems"] = checks.check_outputs(out, workload.top_k)
    rec["numpy"] = numpy.__version__
    if not rec["problems"]:
        metrics = json.loads((out / "eval_timetrail.json").read_text(encoding="utf-8"))["metrics"]
        rec["quality"] = {m: metrics[m] for m in checks.QUALITY}
    if trace:
        counts = {
            "cleansed_rows": json.loads((out / "cleanse_report.json").read_text(encoding="utf-8"))["rows_out"],
            "test_rows": _rows(out / "enriched_test.csv"),
        }
        rec["layers"] = layers.layer_metrics(tracer, installed, counts)
        if "quality" in rec:
            for name in layers.QUALITY_METRICS:
                rec["layers"][name] = rec["quality"][name.removeprefix("metrics.")]
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    try:
        rec = repetition(WORKLOADS[args.workload], args.seed, Path(args.out), args.spawned_at, args.trace)
    except Exception as e:  # the repetition fails; run.py counts it
        traceback.print_exc()
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}))
        return 1
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
