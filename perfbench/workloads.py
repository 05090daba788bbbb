"""The benchmark's workloads: each is a timetrail run config plus the stages it times.

All share the generator's Jan-Jul 2023 period, fraud rate 0.005 and
``remove_outliers: false``; the seed comes from the command line. Why each
workload is there is said in BENCHMARK.json and perfbench/README.md.
"""
from __future__ import annotations

from dataclasses import dataclass

from layers import STAGES


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    users: int
    terminals: int
    # Every workload runs all stages; these consecutive ones are timed.
    timed: tuple[str, ...] = STAGES
    # Times the timed stages run; pipeline_s is the median pass. A short
    # timed chain needs several passes to be steady.
    passes: int = 1
    split: tuple[float, float] | None = None
    top_k: int = 3
    # The file whose rows enter the timed chain; rows_per_s divides by them.
    input_file: str = "dataset.csv"

    def config(self, seed: int, out_dir: str) -> dict:
        doc = {
            "seed": seed,
            "out_dir": out_dir,
            "generator": {
                "n_users": self.users,
                "n_terminals": self.terminals,
                "target_rows": self.rows,
                "fraud_rate": 0.005,
                "period": ["2023-01-01T00:00:00Z", "2023-07-01T00:00:00Z"],
            },
            "cleanse": {"remove_outliers": False},
            "top_k_explanations": self.top_k,
        }
        if self.split is not None:
            doc["split"] = {"train_frac": self.split[0], "val_frac": self.split[1]}
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            rows=50_000,
            users=800,
            terminals=60,
        ),
        Workload(
            name="wide",
            rows=50_000,
            users=8_000,
            terminals=240,
        ),
        Workload(
            name="rescore",
            rows=50_000,
            users=800,
            terminals=60,
            timed=("evaluate", "explain"),
            passes=3,
            split=(0.6, 0.1),
            top_k=50,
            input_file="enriched_test.csv",
        ),
    )
}
