"""timetrail pipeline benchmark.

    python3 perfbench/run.py --workload desk [--seed 7] [--seconds 40] [--trace 0|1]

Runs repetitions of one workload, each in a fresh single-threaded process
(perfbench/rep.py), until --seconds have passed and at least MIN_REPS ran.
Every repetition's outputs are checked; a repetition that raises, fails a
check, or writes a manifest other than the first one's counts as failed.

--trace 0 prints the end-to-end metrics as medians over the repetitions.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics (medians over the traced ones) and trace.overhead_s, the
traced minus the untraced median pipeline_s. The last line of stdout is
the JSON result; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import OVERHEAD_METRIC, PER_LAYER_METRICS, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "timetrail"
WORK = HERE / "_work"
MANIFESTS = HERE / "manifests.json"

MIN_REPS = 2
# A run must end within 180 s: start no repetition expected to end after
# LAST_START, and kill one still running at REP_DEADLINE (it counts as failed).
LAST_START = 150.0
REP_DEADLINE = 170.0

END_TO_END = {
    "pipeline_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "auc_roc": "ratio",
}

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_rep(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh process; its record, or {"error": ...}."""
    out = WORK / workload
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, **SINGLE_THREAD}
    started = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
        "--out", str(out), "--spawned-at", repr(started),
    ] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        rec = {"error": "repetition killed at the run's deadline"}
    else:
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rec = {}
        if proc.returncode != 0:
            rec.setdefault("error", f"repetition exited {proc.returncode}")
        elif "manifest_sha256" not in rec:
            rec.setdefault("error", "repetition printed no result")
    rec["wall_s"] = time.monotonic() - started
    rec["traced"] = trace
    return rec


def tally(records: list[dict]) -> list[str]:
    """Mark each failed record with "failed"; a failure is never dropped.

    The first manifest digest is the reference for the rest: repetitions of
    one seed must write byte-identical artifacts.
    """
    reference = next((r["manifest_sha256"] for r in records if "manifest_sha256" in r), None)
    reasons = []
    for i, rec in enumerate(records, 1):
        why = []
        if "error" in rec:
            why.append(rec["error"])
        why += rec.get("problems", [])
        if "manifest_sha256" in rec and rec["manifest_sha256"] != reference:
            why.append("manifest differs from the first repetition's")
        rec["failed"] = bool(why)
        reasons += [f"repetition {i}: {w}" for w in why]
    return reasons


def end_to_end(ok: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "pipeline_s": med(r["pipeline_s"] for r in ok),
        "rows_per_s": med(r["rows_in"] / r["pipeline_s"] for r in ok),
        "setup_s": med(r["setup_s"] for r in ok),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in ok),
        "auc_roc": med(r["quality"]["auc_roc"] for r in ok),
    }


def per_layer(ok: list[dict]) -> dict[str, float]:
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    out: dict[str, float] = {}
    for name in PER_LAYER_METRICS:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if len(values) == len(traced) and values:
            out[name] = statistics.median_low(values)  # a measured value; counts stay whole
    if traced and plain:
        out[OVERHEAD_METRIC] = (
            statistics.median(r["pipeline_s"] for r in traced)
            - statistics.median(r["pipeline_s"] for r in plain)
        )
    return out


def environment(records: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    for path in sorted(PROGRAM.rglob("*.py")):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in records if "numpy" in r), None),
        "git_commit": commit,
        "src_timetrail_lines": lines,
    }


def manifest_note(workload: str, seed: int, records: list[dict]) -> str:
    digest = next((r["manifest_sha256"] for r in records if "manifest_sha256" in r), None)
    if digest is None:
        return "manifest: none written"
    known = json.loads(MANIFESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if known is None:
        verdict = f"no reference for seed {seed}"
    else:
        verdict = "match" if digest == known else f"MISMATCH (reference {known})"
    return f"manifest sha256 {digest}: {verdict}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PROGRAM / "pipeline.py").is_file():
        print(f"error: no timetrail sources at {PROGRAM}", file=sys.stderr)
        return 2

    records: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_rep(args.workload, args.seed, traced, start + REP_DEADLINE))
        elapsed = time.monotonic() - start
        per_rep = statistics.median(r["wall_s"] for r in records)
        if elapsed + per_rep > LAST_START:
            break
        if len(records) >= MIN_REPS and elapsed + per_rep > args.seconds:
            break

    reasons = tally(records)
    ok = [r for r in records if not r["failed"]]
    metrics: dict[str, float] = {}
    if args.trace:
        if any(r["traced"] for r in ok):
            metrics = per_layer(ok)
    elif ok:
        metrics = end_to_end(ok)
    units = {name: END_TO_END.get(name) or unit_of(name) for name in metrics}

    failed = sum(r["failed"] for r in records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(records)}  failed {failed}")
    for i, r in enumerate(records, 1):
        timings = "  ".join(f"{k} {r[k]:.3f}" for k in ("setup_s", "pipeline_s", "wall_s") if k in r)
        print(f"  repetition {i}{' traced' if r['traced'] else ''}: {timings}")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print("environment " + json.dumps(environment(records), sort_keys=True))
    print(manifest_note(args.workload, args.seed, records))
    if ok and not args.trace:
        for name in ("average_precision", "tis"):  # per-layer metrics; printed here for people
            print(f"{name:<36} {statistics.median(r['quality'][name] for r in ok)!r} ratio")
    for name, value in metrics.items():
        print(f"{name:<36} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
