"""Child process of the benchmark: set up one workload, then measure it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS/OpenMP threads pinned to 1.  It prints ``READY`` once
``duality.cli`` is imported and the inputs are built; with ``--setup-only``
it exits there.  Otherwise it runs one closed loop (one caller, one thread)
and prints one JSON object with the raw measurements as its last line.
The warm-up pass runs once, untimed but checked; it also sets the peak
resident memory of ``verify-default`` (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """What the numbers depend on, as seen from inside the measured process."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pinning": {name: os.environ.get(name) for name in PINNED},
        "duality": sys.modules["duality"].__file__,
    }


def best_per_call(results) -> list:
    """Each call's fastest time over several runs of the same pass.

    The benchmark host shares cores with other work, and a call runs either
    at full speed or markedly slower, in a mix that changes from minute to
    minute.  Medians over time follow that mix; the fastest of many short
    calls does not, so every timing metric is built from these best times.
    """
    return [min(times) for times in zip(*(r.latencies for r in results))]


def repeat(run_pass, seconds: float) -> list:
    """Run whole passes, at least one, until ``seconds`` have elapsed."""
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(run_pass())
    return results


def totals(results) -> dict:
    return {"attempted": sum(r.items for r in results), "failed": sum(r.failed for r in results)}


def measure(wl: workloads.Workload, seconds: float) -> dict:
    """Untraced closed loop over the timed pass for ``seconds``."""
    results = repeat(wl.timed.run, seconds)
    best = best_per_call(results)
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    return {
        "passes": len(results),
        "samples": sum(len(r.latencies) for r in results),
        **totals(results),
        "metrics": {
            "items_per_s": results[0].items / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": p90 * 1e3,
        },
    }


def measure_traced(wl: workloads.Workload, seconds: float, spans_path: Path) -> dict:
    """Untraced passes for a third of ``seconds``, then traced passes for another third.

    Every traced pass runs over the same inputs with a fresh tracer; their
    per-function call counts must agree exactly, or the result is marked
    incorrect.  Per-layer metrics come from the fastest traced pass, whose
    spans are written to ``spans_path``.
    """
    untraced = repeat(wl.timed.run, seconds / 3)
    traced, counts, fastest = [], [], None
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds / 3:
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            result = wl.timed.run()
        traced.append(result)
        counts.append(tracing.call_counts(tracer.spans))
        if fastest is None or result.wall < fastest[1].wall:
            fastest = (tracer.spans, result)
    repeats = all(c == counts[0] for c in counts)
    if not repeats:
        print(f"error: call counts differ between traced passes: {counts}", file=sys.stderr)
    spans, best = fastest
    tracing.write_spans(spans, spans_path)

    metrics = tracing.layer_metrics(spans, best.items, best.wall)
    metrics["sweep.write_instances_csv.bytes"] = best.csv_bytes / best.items
    metrics["sweep.degenerate_ratio"] = best.degenerate / best.items
    metrics["trace.overhead_ratio"] = sum(best_per_call(traced)) / sum(best_per_call(untraced))
    return {
        "passes": len(untraced) + len(traced),
        "samples": len(spans),
        "counts_repeat": repeats,
        "traced_wall_s": best.wall,
        "untraced_wall_s": sum(best_per_call(untraced)),
        **totals(untraced + traced),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import duality.cli  # noqa: F401  (set-up includes importing the CLI)

    source = Path(sys.modules["duality"].__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported duality from {source}, not from this checkout", file=sys.stderr)
        return 2
    wl = workloads.prepare(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    warmup = wl.warmup.run()
    if args.trace:
        result = measure_traced(wl, args.seconds, args.spans)
    else:
        result = measure(wl, args.seconds)
    result["attempted"] += warmup.items
    result["failed"] += warmup.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
