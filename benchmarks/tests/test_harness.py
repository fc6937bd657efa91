"""Tests of the benchmark harness itself, not of the duality package.

Run from the root of a checkout::

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import duality.cli  # noqa: E402,F401  (loads every module the tracer patches)
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bindings() -> dict:
    """(module, attribute) -> value for every callable a duality module binds."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "duality" or name.startswith("duality.")
        for attr, value in vars(module).items() if callable(value)
    }


def test_patched_wraps_every_binding_and_restores_them_on_error():
    before = bindings()
    originals = {id(before[(f"duality.{name.split('.')[0]}", name.split(".")[1])])
                 for name in tracing.TRACED}
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.patched(tracing.Tracer()):
            during = bindings()
            assert sys.modules["duality.measures"].evolve is sys.modules["duality.interferometer"].evolve
            for key, value in before.items():
                if id(value) in originals:
                    assert during[key] is not value, key
            raise RuntimeError("inside the traced block")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", ["analyze", "verify-n8"])
def test_self_times_are_non_negative_and_sum_to_traced_wall(tmp_path, name):
    wl = workloads.prepare(name, 0, tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        result = wl.timed.run()
    assert result.failed == 0
    selfs = [seconds for _, seconds in tracing.self_times(tracer.spans)]
    assert min(selfs) >= 0.0
    # Pass wall time is measured around each cli.main call, so only the
    # wrapper's own entry and exit lie outside the root spans.
    assert 0.98 * result.wall <= sum(selfs) <= result.wall
    shares = tracing.layer_metrics(tracer.spans, result.items, result.wall)
    assert sum(v for k, v in shares.items() if k.endswith(".self_share")) == pytest.approx(
        sum(selfs) / result.wall)


@pytest.mark.parametrize("name", ["analyze", "verify-n8"])
def test_corrupted_reference_digest_fails_every_item(tmp_path, name):
    good = workloads.prepare(name, 0, tmp_path / "good").timed
    assert good.reference is not None
    result = good.run()
    assert result.failed == 0 and result.items > 0
    corrupted = {good.label: {"0": "0" * 64}}
    bad = workloads.prepare(name, 0, tmp_path / "bad", references=corrupted).timed.run()
    assert bad.failed == bad.items == result.items


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_written_result_matches_benchmark_json(name, trace):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in spec]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(SPEC["command"] + ["--workload", "analyze", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
