import re
from collections import namedtuple
from dataclasses import fields

from hypothesis import HealthCheck, settings

from timetrail.data import BASE_COLUMNS, OPTIONAL_COLUMNS, Dataset, parse_transactions

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

Row = namedtuple("Row", [f.name for f in fields(Dataset)])


def transactions(rows) -> Dataset:
    """parse_transactions of CSV text holding `rows`: tuples in BASE_COLUMNS
    order, then an optional label and scenario, where None is an empty cell."""
    lines = [",".join("" if v is None else str(v) for v in (*row, "", "")[:8]) for row in rows]
    return parse_transactions("\n".join([",".join(BASE_COLUMNS + OPTIONAL_COLUMNS), *lines]))


def records(d: Dataset) -> list[Row]:
    """The dataset's rows as named tuples, read from its columns ("" where unset)."""
    return [Row(*row) for row in zip(*(getattr(d, n).tolist() for n in Row._fields))]


# One line per numbered end-to-end criterion is printed after the run; the
# numbers match the test_criterion_NN names in test_acceptance.py.
CRITERIA = {
    1: "desk-scale gap: enriched GBT vs raw logistic, F1 +0.15 / AUC +0.05, run-all < 2 min",
    2: "windowed Pearson: incremental == two-pass within 1e-9; scalar values exact",
    3: "metrics vs brute force: confusion exact; AUC/AP within 1e-12 with ties",
    4: "attribution completeness: bias + contributions == margin within 1e-9",
    5: "TIS in [0,1], partition additivity, >= 0.5 on pure-temporal scenarios",
    6: "logistic gradient vs central differences, relative error < 1e-5",
    7: "boosting: monotone training log-loss; first split == exhaustive search",
    8: "undersampling: all minority kept, exactly ceil(ratio*minority) majority",
    9: "determinism: identical configs give byte-identical manifests",
    10: "generator: exact fraud counts at both scales; large scale < 5 min",
}

_RANK = {"passed": 0, "skipped": 1, "error": 2, "failed": 3}
_LABEL = {"passed": "PASS", "skipped": "SKIP", "error": "FAIL", "failed": "FAIL"}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status in _RANK:
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if not m:
                continue
            cid = int(m.group(1))
            if cid not in outcomes or _RANK[status] > _RANK[outcomes[cid]]:
                outcomes[cid] = status
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for cid in sorted(CRITERIA):
        label = _LABEL.get(outcomes.get(cid, ""), "NOT RUN")
        terminalreporter.write_line(f"criterion {cid:2d}: {label:7s} {CRITERIA[cid]}")
