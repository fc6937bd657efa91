"""Benchmark entry point for the ``duality`` package.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

Each measurement runs in a fresh child process (``worker.py``) that imports
the package from this checkout's ``src``, with BLAS/OpenMP threads pinned to
1.  With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a separate traced run over the same inputs.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment beside the numbers, goes to ``.bench_work/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
from worker import PINNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Set-up is timed this many times before the measurement and as many after
# it; the measuring child adds one more, and ``setup_s`` is the fastest.  Like
# the call timings (see ``worker.best_per_call``), set-up time on a shared
# host is bimodal, and a median flips between the modes from run to run.
# One untimed start first fills the bytecode and file caches.
SETUP_SAMPLES = 6
SETUP_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(PINNED, "1"))
    return env


def start_child(args: list, timeout: float):
    """Start a worker; return (process, seconds until it printed READY, kill timer)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "READY":
        finish(proc, timer)
        raise RuntimeError(f"worker did not become ready (exit code {proc.returncode})")
    return proc, setup, timer


def finish(proc, timer) -> str:
    """Wait for a worker to end and return the rest of its output."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out


def time_setups(common: list, workdir: Path, count: int) -> list:
    """Start ``count`` set-up-only workers one after another; their set-up times."""
    times = []
    for k in range(count):
        proc, setup, timer = start_child(
            [*common, "--workdir", str(workdir / f"setup-{k}"), "--setup-only"], SETUP_TIMEOUT_S)
        finish(proc, timer)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up worker exited with code {proc.returncode}")
        times.append(setup)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the duality package.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "duality" / "cli.py").is_file():
        print(f"error: no duality sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = WORK / f"run-{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else time_setups(common, workdir, SETUP_SAMPLES + 1)[1:]
        spans = WORK / f"SPANS_{tag}.csv"
        proc, setup, timer = start_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir / "measure"), "--spans", str(spans)],
            2 * args.seconds + 60)
        setups.append(setup)
        out = finish(proc, timer)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring worker exited with code {proc.returncode}")
        raw = json.loads(out.strip().splitlines()[-1])
        if not args.trace:
            setups += time_setups(common, workdir, SETUP_SAMPLES)
    except (RuntimeError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = tracing.per_layer_units()
    else:
        units = END_TO_END_UNITS
        raw["metrics"]["peak_rss_mb"] = raw["peak_rss_mb"]
        raw["metrics"]["setup_s"] = min(setups)
    metrics = {name: {"value": raw["metrics"][name], "unit": unit} for name, unit in units.items()}
    correct = raw["failed"] == 0 and raw.get("counts_repeat", True)

    env = dict(raw["env"], cpu=cpu_model(), nproc=len(os.sched_getaffinity(0)),
               cpu_count=os.cpu_count(), git_commit=git_commit())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": raw["passes"], "samples": raw["samples"],
        "setup_samples_s": setups, "env": env,
        "correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
        "failed_ratio": raw["failed"] / raw["attempted"], "metrics": metrics,
    }
    for key in ("counts_repeat", "traced_wall_s", "untraced_wall_s"):
        if key in raw:
            record[key] = raw[key]
    (WORK / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("env: " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
