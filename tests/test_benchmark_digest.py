"""The outputs the benchmark checks are those this checkout writes.

``benchmarks/workloads.py`` is read from its source, without importing it or
writing anything next to it.  Its ``prepare`` builds each workload's passes
in a temporary directory: the analyze workload's 116 instance files, and the
``duality verify`` calls of the verify workloads' warm-up and timed passes.
Each pass's sha256 of its output (the concatenated ``analyze`` outputs, or
``instances.csv``) must equal the digest recorded in
``benchmarks/references.json``: a changed bit fails every item of that pass
in a benchmark run.  The references pin the build they were recorded with,
numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64, as well as the engine.
"""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def workloads_module(monkeypatch) -> types.ModuleType:
    module = types.ModuleType("benchmark_workloads")
    module.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, module.__name__, module)  # where its dataclasses look up their annotations
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("seed", [0, 3])
def test_analyze_outputs_match_the_benchmark_references(tmp_path, monkeypatch, seed):
    workloads = workloads_module(monkeypatch)
    reference = workloads.load_references()["analyze"][str(seed)]
    result = workloads.prepare("analyze", seed, tmp_path).timed.run()
    assert (result.items, result.failed) == (116, 0)
    assert result.digest == reference


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["verify-default", "verify-n8"])
def test_verify_outputs_match_the_benchmark_references(tmp_path, monkeypatch, name, seed):
    workloads = workloads_module(monkeypatch)
    references = workloads.load_references()
    for run in workloads.prepare(name, seed, tmp_path):  # the warm-up pass, then the timed one
        result = run.run()
        assert (result.items, result.failed) == (run.plan_items, 0), run.label
        assert result.digest == references[run.label][str(seed)], run.label
