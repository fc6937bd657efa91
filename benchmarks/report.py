"""Print every benchmark metric, with its unit, for every workload.

From the root of a checkout::

    python3 benchmarks/report.py --seed 0 --seconds 30

For each workload this runs ``run.py`` untraced (end-to-end metrics plus
``failed_ratio``) and traced (per-layer metrics), one after the other, and
prints one ``workload  metric  value  unit`` line per metric.  It exits
nonzero if a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if not trace:
                rows.append(("failed_ratio", result["failed"] / result["attempted"], "ratio"))
            for name, value, unit in rows:
                print(f"{workload:15s} {name:50s} {value:14.6g} {unit}")
            print(f"{workload:15s} {'(attempted, failed, correct)':50s} "
                  f"{result['attempted']}, {result['failed']}, {result['correct']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
