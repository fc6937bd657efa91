"""Record the output digests the benchmark checks against.

Runs every pass of every workload once per seed and writes the sha256 of its
output (``instances.csv`` for verify passes, the concatenated ``analyze``
outputs for ``analyze``) to ``references.json``, keyed by pass label.  Run it
only at a commit whose outputs are known good, from the root of a checkout::

    python3 benchmarks/record_references.py --seeds 100
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="record seeds 0..N-1")
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(worker.PINNED, "1"))  # before numpy loads
    workdir = ROOT / ".bench_work" / "record"
    refs = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in range(args.seeds):
                wl = workloads.prepare(name, seed, workdir / f"{name}-{seed}", references={})
                for run in {wl.warmup.label: wl.warmup, wl.timed.label: wl.timed}.values():
                    result = run.run()
                    if result.failed:
                        print(f"error: {run.label} seed {seed} fails its checks", file=sys.stderr)
                        return 1
                    refs.setdefault(run.label, {})[str(seed)] = result.digest
            print(f"{name}: {args.seeds} seeds recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
