"""Command line entry point.

Every subcommand reads a JSON run config and executes one pipeline stage
(or all of them). Exit codes: 0 success, 1 validation problem (bad config,
bad data), 2 I/O problem (missing or unreadable files).
"""
from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, load_config, run_all, run_stage

_STAGE_HELP = {
    "generate": "synthesize the transaction stream (or ingest input_csv)",
    "preprocess": "cleanse, report, and split the dataset",
    "enrich": "attach the temporal attributes to every split",
    "correlate": "correlation heatmap and windowed coefficient series",
    "train": "fit the baseline and the boosted ensemble",
    "evaluate": "score both models on the test split",
    "explain": "decision-path sequences for the top flagged rows",
    "plot": "render SVG figures from the emitted data",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timetrail",
        description="Temporal enrichment, correlation, and fraud-model pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(s.replace("_", "-"), _STAGE_HELP[s]) for s in STAGES]
    commands.append(("run-all", "run every stage in order and write manifest.json"))
    for name, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="run seed (overrides config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "run-all":
            entries = run_all(cfg)
            print(f"wrote {len(entries)} artifacts to {cfg.out_dir} (see manifest.json)")
        else:
            paths = run_stage(cfg, args.command.replace("-", "_"))
            for rel, _ in paths:
                print(f"wrote {cfg.out_dir}/{rel}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
