"""Workload inputs and output checks for the duality benchmark.

Every workload drives the package only through ``duality.cli.main``.  A pass
is a fixed list of CLI calls built from the workload seed.  Each workload has
a warm-up pass, run once before timing, and a timed pass, repeated:

* ``verify-default``: warm-up is ``duality verify`` at its shipped defaults
  (classes, dims 2,3,4, 100 instances per lane: 2600 rows held in memory);
  the timed pass is the same sweep at 4 instances per lane (104 instances).
* ``verify-n8``: the same with ``--dims 8`` (800 and 80 instances).
* ``analyze``: one ``duality analyze <file>`` call per instance file; the
  files are written at set-up from ``sweep_plan`` at the seed, two instances
  per lane over every class and dims 2..8 (116 files).  Warm-up and timed
  pass are the same.

Timed verify calls are short because the timing estimator needs many
samples per run (see ``worker.py``).

A pass fails as a whole when any call exits nonzero, reports a degenerate
instance or a violation, reports a per-check count that differs from the
one the sweep plan implies, or produces output whose digest differs from
the reference recorded for the seed (``references.json``) or, for seeds
without one, from the first run of the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("verify-default", "verify-n8", "analyze")
VERIFY_DIMS = {"verify-default": (2, 3, 4), "verify-n8": (8,)}
VERIFY_COUNTS = {"warmup": 100, "timed": {"verify-default": 4, "verify-n8": 10}}
ANALYZE_COUNT = 2
ANALYZE_DIMS = tuple(range(2, 9))

REFERENCES = Path(__file__).with_name("references.json")

CHECK_NAMES = (
    "o2p", "o2q", "o2_nuevita", "o1", "main", "mixing_bound",
    "pure_identity", "chi_closed_form", "d_two_level", "contrast_recomposition",
    "pure_saturation_xi", "pure_saturation_d",
)


def expected_check_counts(plan, count: int) -> dict:
    """Per-check counts a sweep over ``plan`` must report, from lane labels alone.

    ``s_pure`` lanes have a polarized quanton; the ``main`` and
    ``chi_closed_form`` checks need two-level markers with state-independent
    way probabilities, which the unitary-pair and tilted-pair block classes
    have by construction and a Haar joint unitary almost surely has not.
    """
    expected = dict.fromkeys(CHECK_NAMES, 0)
    for block, wwm, s_class, dim in plan:
        hits = ["o2p", "o2q", "o2_nuevita", "o1"]
        if dim == 2:
            hits.append("d_two_level")
        if s_class == "s_pure":
            if wwm == "pure":
                hits += ["pure_saturation_xi", "pure_saturation_d", "pure_identity"]
            else:
                hits += ["mixing_bound", "contrast_recomposition"]
            if dim == 2 and block != "general_unitary":
                hits += ["main", "chi_closed_form"]
        for name in hits:
            expected[name] += count
    return expected


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


@dataclass
class PassResult:
    """One run of a pass.  ``latencies`` holds one time per call, in call order."""

    latencies: list
    items: int
    failed: int
    degenerate: int
    csv_bytes: int
    digest: str

    @property
    def wall(self) -> float:
        """Time inside the calls; the harness's checks between calls are excluded."""
        return sum(self.latencies)


@dataclass
class Pass:
    """A fixed list of CLI calls and the checks on their output."""

    label: str
    cli: object
    calls: list
    reference: str | None
    csv_path: Path | None = None
    expected_checks: dict | None = None
    plan_items: int = 0
    first_digest: str | None = field(default=None, repr=False)

    def _check_verify(self, rc: int, stdout: str):
        """Returns (items, failed, degenerate, payload) for one verify call."""
        try:
            summary = json.loads(stdout)
            payload = self.csv_path.read_bytes()
        except (ValueError, OSError):
            return self.plan_items, self.plan_items, 0, b""
        degenerate = summary["degenerate_count"]
        items = summary["instance_count"] + degenerate
        counts = {**summary["slack_checks"], **summary["deviation_checks"]}
        ok = (rc == 0 and degenerate == 0 and summary["violation_count"] == 0
              and items == self.plan_items
              and all(counts.get(name, {"count": 0})["count"] == n
                      for name, n in self.expected_checks.items()))
        return items, 0 if ok else items, degenerate, payload

    def run(self) -> PassResult:
        latencies, items, failed, degenerate, csv_bytes = [], 0, 0, 0, 0
        digest = hashlib.sha256()
        for argv in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc = self.cli.main(argv)
                latencies.append(time.perf_counter() - start)
            if self.csv_path is not None:
                n, bad, degen, payload = self._check_verify(rc, out.getvalue())
                csv_bytes += len(payload)
            else:
                n, bad, degen, payload = 1, int(rc != 0), int(rc == 3), out.getvalue().encode()
            items, failed, degenerate = items + n, failed + bad, degenerate + degen
            digest.update(payload)
        digest = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        if digest != (self.reference or self.first_digest):
            failed = items
        return PassResult(latencies, items, failed, degenerate, csv_bytes, digest)


class Workload(NamedTuple):
    warmup: Pass
    timed: Pass


def _verify_pass(name, label, seed, count, workdir, cli, reference) -> Pass:
    from duality.sweep import SweepConfig, sweep_plan

    dims = VERIFY_DIMS[name]
    plan = sweep_plan(SweepConfig(seed=seed, count=count, dims=dims))
    out = workdir / label
    argv = ["verify", "--seed", str(seed), "--count", str(count),
            "--dims", ",".join(map(str, dims)), "--out", str(out)]
    return Pass(label, cli, [argv], reference, csv_path=out / "instances.csv",
                expected_checks=expected_check_counts(plan, count),
                plan_items=len(plan) * count)


def prepare(name: str, seed: int, workdir: Path, references: dict | None = None) -> Workload:
    """Import ``duality.cli`` and build the inputs of one workload under ``workdir``.

    ``references`` maps pass labels to {seed: digest}; it defaults to
    ``references.json``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cli = importlib.import_module("duality.cli")
    from duality.sweep import SweepConfig, generate_instance, sweep_plan

    if references is None:
        references = load_references()

    def reference(label):
        return references.get(label, {}).get(str(seed))

    workdir.mkdir(parents=True, exist_ok=True)
    if name in VERIFY_DIMS:
        passes = [_verify_pass(name, f"{name}.{kind}", seed, count, workdir, cli,
                               reference(f"{name}.{kind}"))
                  for kind, count in (("warmup", VERIFY_COUNTS["warmup"]),
                                      ("timed", VERIFY_COUNTS["timed"][name]))]
        return Workload(*passes)

    # Streams are numbered as run_sweep numbers them, so every file can be
    # regenerated from (seed, index) alone.
    cfg = SweepConfig(seed=seed, count=ANALYZE_COUNT, dims=ANALYZE_DIMS)
    calls = []
    stream = 0
    for block, wwm, s_class, dim in sweep_plan(cfg):
        for _ in range(cfg.count):
            inst = generate_instance(seed, stream, dim, wwm, s_class, block)
            path = workdir / f"instance-{stream:04d}.json"
            path.write_text(json.dumps(inst.to_dict()), encoding="utf-8")
            calls.append(["analyze", str(path)])
            stream += 1
    only = Pass(name, cli, calls, reference(name))
    return Workload(only, only)
