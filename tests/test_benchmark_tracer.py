"""The benchmark's tracer looks up package functions by name.

``benchmarks/tracing.py`` is read from its source, without importing it or
writing anything next to it, so that deleting or renaming a traced function
fails here rather than in a benchmark run.
"""

import importlib
import types
from pathlib import Path

import duality.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def tracing_module() -> types.ModuleType:
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    layers = tracing_module().LAYERS
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"duality.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"duality.{layer}.{name}"


def test_measures_binds_the_interferometer_evolve():
    # The benchmark's own tests patch evolve at both bindings.
    assert importlib.import_module("duality.measures").evolve is importlib.import_module(
        "duality.interferometer").evolve
