"""Spans around the package's public functions, recorded from outside it.

:func:`patched` temporarily replaces each listed function with a wrapper at
every ``duality`` module that binds it (``duality.measures.evolve`` as well
as ``duality.interferometer.evolve``), and restores every attribute on exit,
also when the traced code raises.  Each wrapper appends a span
``[name, start, end, parent]`` to an in-memory list; nothing is written until
the traced run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

LAYERS = {
    "linalg": ("require_density", "trace_norm", "hermitian_eigen",
               "haar_unitary_from", "density_from", "rng"),
    "interferometer": ("evolve", "validate_unitarity", "conditional_wwm_states",
                       "contrast_factors", "instance_from_dict"),
    "measures": ("hierarchy_report", "quality", "distinguishability", "r_measure",
                 "state_independent_ways", "pure_state_identity_check",
                 "mixed_state_bound_check", "spectral_components"),
    "sweep": ("generate_instance", "run_sweep", "write_instances_csv"),
    "cli": ("main", "cmd_verify", "cmd_analyze"),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Functions every workload calls.  Only these get a median self time: on a
# workload that never calls a function there is no time to report.
TIMED = (
    "linalg.require_density", "linalg.trace_norm", "interferometer.evolve",
    "interferometer.validate_unitarity", "interferometer.conditional_wwm_states",
    "interferometer.contrast_factors", "measures.hierarchy_report",
    "measures.quality", "measures.distinguishability", "cli.main",
)

# Per-layer metrics the harness adds beside the per-function ones.
EXTRA_UNITS = {
    "sweep.write_instances_csv.bytes": "B/item",
    "sweep.degenerate_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in reporting order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls_per_instance"] = "calls/item"
        if name in TIMED:
            units[f"{name}.self_us_p50"] = "us"
        units[f"{name}.self_share"] = "ratio"
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """Collects spans from the wrappers it makes; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every function in ``TRACED`` wherever a ``duality`` module binds it."""
    saved = []
    try:
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"duality.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrapper = tracer.wrap(f"{layer}.{fn}", original)
                for name, binder in list(sys.modules.items()):
                    if ((name == "duality" or name.startswith("duality."))
                            and getattr(binder, fn, None) is original):
                        saved.append((binder, fn, original))
                        setattr(binder, fn, wrapper)
        yield tracer
    finally:
        for binder, fn, original in reversed(saved):
            setattr(binder, fn, original)


def self_times(spans) -> list:
    """(name, self seconds) per span: duration minus the child spans' durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(span[0], span[2] - span[1] - covered[i]) for i, span in enumerate(spans)]


def call_counts(spans) -> dict:
    counts = dict.fromkeys(TRACED, 0)
    for span in spans:
        counts[span[0]] += 1
    return counts


def layer_metrics(spans, items: int, wall: float) -> dict:
    """Per-function metrics (name -> value) of one traced pass over ``items`` items."""
    selfs = {name: [] for name in TRACED}
    for name, seconds in self_times(spans):
        selfs[name].append(seconds)
    out = {}
    for name, values in selfs.items():
        out[f"{name}.calls_per_instance"] = len(values) / items
        if name in TIMED:
            out[f"{name}.self_us_p50"] = statistics.median(values) * 1e6 if values else 0.0
        out[f"{name}.self_share"] = sum(values) / wall
    return out


def write_spans(spans, path) -> None:
    """Write spans as CSV: index, name, start and end in microseconds, parent index."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_us,end_us,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent}\n")
