"""A golden of ``duality verify --seed 0 --count 2`` that does not depend on the build.

The byte digests elsewhere pin round-off too, and so the BLAS/LAPACK build:
reading the other triangle in ``eigvalsh`` moves ``xi_minus_d`` by 1.0e-13
and picks another worst instance among slacks that tie at 1e-15.  This golden
pins the numbers instead.  ``golden_seed0_count2.json`` holds, at full
precision, every column ``evaluate`` returns for the sweep's 52 instances, with
their labels, and the summary.  A rerun must give equal labels, check counts,
NaN pattern, violations and ``xi_minus_d_candidates``, and every numeric cell,
each check's ``worst`` and ``xi_minus_d_min`` within ``ATOL``, ten times the
largest such move measured.  The worst instance, which round-off picks, is
not compared.

Run this file as a script to record the golden again.
"""

import json
import math
from pathlib import Path

import numpy as np

from duality.sweep import SweepConfig, SweepSummary, iter_sweep

GOLDEN = Path(__file__).with_name("golden_seed0_count2.json")
CONFIG = SweepConfig(seed=0, count=2)
ATOL = 1e-12


def sweep_record(cfg: SweepConfig) -> dict:
    """The labels and every column of a sweep's instances, and its summary, as JSON values."""
    summary = SweepSummary(config=cfg)
    chunks = list(iter_sweep(cfg, summary))
    columns = {name: np.concatenate([chunk.columns[name] for chunk in chunks]) for name in chunks[0].columns}
    summary = summary.to_dict()
    del summary["runtime_seconds"], summary["worst_instance"]
    return {"labels": [[i, *lane] for chunk in chunks for i, lane in zip(chunk.indices, chunk.lanes)],
            "columns": {name: [None if math.isnan(x) else x for x in column.tolist()]
                        for name, column in columns.items()},
            "summary": summary}


def test_the_sweep_matches_its_golden_within_round_off():
    golden, run = json.loads(GOLDEN.read_text(encoding="utf-8")), sweep_record(CONFIG)
    assert len(run["labels"]) == 52 and run["labels"] == golden["labels"]
    assert list(run["columns"]) == list(golden["columns"])
    for name, cells in golden["columns"].items():
        got = run["columns"][name]
        assert [x is None for x in got] == [x is None for x in cells], name
        assert all(x is None or abs(x - y) <= ATOL for x, y in zip(got, cells)), name
    summary, expected = run["summary"], golden["summary"]
    for kind in ("slack_checks", "deviation_checks"):
        assert list(summary[kind]) == list(expected[kind])
        for name, st in expected[kind].items():
            got = summary[kind][name]
            assert (got["count"], got["violations"]) == (st["count"], st["violations"]), name
            assert (got["worst"] is None) == (st["worst"] is None) and (
                st["worst"] is None or abs(got["worst"] - st["worst"]) <= ATOL), name
    assert [(v["check"], v["labels"]) for v in summary["violations"]] == [
        (v["check"], v["labels"]) for v in expected["violations"]]
    assert abs(summary["xi_minus_d_min"] - expected["xi_minus_d_min"]) <= ATOL
    for key in ("config", "instance_count", "degenerate_count", "xi_minus_d_candidates", "violation_count"):
        assert summary[key] == expected[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(sweep_record(CONFIG), indent=1) + "\n", encoding="utf-8")
