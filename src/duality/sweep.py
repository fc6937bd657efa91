"""Randomized verification sweeps over interferometer instances.

Instances are generated from Philox streams keyed by ``(seed, stream)`` where
``stream`` is the instance's global index in the deterministic enumeration
order (block class, state class, dimension, repetition).  Re-running a sweep
with the same configuration therefore reproduces every instance bit for bit,
and any single instance can be regenerated from its index alone.

Besides the four general inequalities (the P, Q, combined, and D visibility
bounds), a sweep with two-level markers includes a dedicated stringency lane
of tilted-pair instances (asymmetric splitter, way-controlled unitary
coupling, polarized quanton).  On that lane the way probabilities are state
independent, which is the regime where Xi >= D and the two-level closed form
for chi are theorems; outside it the sweep only records the sign of Xi - D.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import linalg
from .errors import DegenerateBranchError, IdentityError, ValidationError
from .interferometer import (
    InterferometerInstance,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
)
from .measures import (
    SLACK_TOL,
    chi_closed_form,
    d_two_level,
    hierarchy_report,
    mixed_state_bound_check,
    pure_state_identity_check,
)
from .tolerances import TIE_ATOL

WWM_CLASSES = ("pure", "mixed")
S_CLASSES = ("s_pure", "s_mixed")
BLOCK_CLASSES = ("unitary_pair", "general_unitary")
STRINGENCY_CLASS = "tilted_pair"

# Check thresholds (slack checks are ">= -tol", deviation checks "<= tol").
SLACK_CHECKS = ("o2p", "o2q", "o2_nuevita", "o1", "main", "mixing_bound")
DEVIATION_CHECKS = {
    "pure_identity": 1e-9,
    "chi_closed_form": 1e-9,
    "d_two_level": 1e-10,
    "contrast_recomposition": 1e-10,
    "pure_saturation_xi": 1e-10,
    "pure_saturation_d": 1e-10,
}


@dataclass(frozen=True)
class SweepConfig:
    """What to generate: ``count`` instances per (state class, block class, dim)."""

    seed: int
    count: int
    dims: tuple = (2, 3, 4)
    state_classes: tuple = tuple((w, s) for w in WWM_CLASSES for s in S_CLASSES)
    block_classes: tuple = BLOCK_CLASSES

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"count must be >= 1, got {self.count}")
        dims = tuple(sorted(set(int(d) for d in self.dims)))
        if not dims or any(d < 2 or d > 8 for d in dims):
            raise ValidationError(f"dims must be a non-empty subset of 2..8, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        states = []
        for wwm, s_class in self.state_classes:
            if wwm not in WWM_CLASSES or s_class not in S_CLASSES:
                raise ValidationError(f"unknown state class ({wwm!r}, {s_class!r})")
            states.append((wwm, s_class))
        if not states:
            raise ValidationError("state_classes must not be empty")
        object.__setattr__(self, "state_classes",
                           tuple(sorted(set(states))))
        blocks = tuple(sorted(set(self.block_classes), key=BLOCK_CLASSES.index))
        if not blocks:
            raise ValidationError("block_classes must not be empty")
        object.__setattr__(self, "block_classes", blocks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "dims": list(self.dims),
            "state_classes": [list(sc) for sc in self.state_classes],
            "block_classes": list(self.block_classes),
        }


def generate_instance(seed: int, stream: int, dim: int, wwm_class: str,
                      s_class: str, block_class: str) -> InterferometerInstance:
    """Build one instance from the Philox stream keyed by (seed, stream).

    Draw order (fixed for reproducibility): inversion, phase, splitter angle
    (tilted pairs only), block unitaries, marker rank, marker state.
    """
    gen = linalg.rng(seed, stream)
    if s_class == "s_pure":
        s = 1.0 if gen.uniform() < 0.5 else -1.0
    else:
        s = float(gen.uniform(-1.0, 1.0))
    phi = float(gen.uniform(0.0, 2.0 * math.pi))

    if block_class == "unitary_pair":
        blocks = from_unitary_pair(linalg.haar_unitary_from(gen, dim),
                                   linalg.haar_unitary_from(gen, dim))
    elif block_class == "general_unitary":
        blocks = from_global_unitary(linalg.haar_unitary_from(gen, 2 * dim))
    elif block_class == STRINGENCY_CLASS:
        # Keep both ways comfortably populated so branches never degenerate.
        theta = float(gen.uniform(0.05, math.pi / 4.0))
        blocks = from_tilted_pair(theta, linalg.haar_unitary_from(gen, dim),
                                  linalg.haar_unitary_from(gen, dim))
    else:
        raise ValidationError(f"unknown block class {block_class!r}")

    rank = 1 if wwm_class == "pure" else int(gen.integers(2, dim + 1))
    rho = linalg.density_from(gen, dim, rank)
    return InterferometerInstance(s=s, blocks=blocks, rho_d0=rho, phi=phi)


def sweep_plan(cfg: SweepConfig) -> list:
    """Deterministic enumeration of (block_class, wwm, s_class, dim) lanes.

    The stringency lane is appended whenever two-level markers are in scope;
    it always uses a polarized quanton.
    """
    plan = [
        (block, wwm, s_class, dim)
        for block in cfg.block_classes
        for (wwm, s_class) in cfg.state_classes
        for dim in cfg.dims
    ]
    if 2 in cfg.dims:
        wwm_kinds = sorted({wwm for wwm, _ in cfg.state_classes})
        plan.extend((STRINGENCY_CLASS, wwm, "s_pure", 2) for wwm in wwm_kinds)
    return plan


@dataclass
class CheckStats:
    count: int = 0
    violations: int = 0
    worst: float | None = None

    def update_slack(self, value: float) -> bool:
        self.count += 1
        self.worst = value if self.worst is None else min(self.worst, value)
        ok = value >= -SLACK_TOL
        if not ok:
            self.violations += 1
        return ok

    def update_deviation(self, value: float, tol: float) -> bool:
        self.count += 1
        self.worst = value if self.worst is None else max(self.worst, value)
        ok = value <= tol
        if not ok:
            self.violations += 1
        return ok

    def to_dict(self) -> dict:
        return {"count": self.count, "violations": self.violations, "worst": self.worst}


@dataclass
class SweepSummary:
    config: SweepConfig
    instance_count: int = 0
    degenerate_count: int = 0
    runtime_seconds: float = 0.0
    slack_checks: dict = field(default_factory=dict)
    deviation_checks: dict = field(default_factory=dict)
    xi_minus_d_min: float | None = None
    xi_minus_d_candidates: int = 0
    violations: list = field(default_factory=list)
    worst_instance: dict | None = None
    _worst_slack: float = math.inf

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "instance_count": self.instance_count,
            "degenerate_count": self.degenerate_count,
            "runtime_seconds": self.runtime_seconds,
            "slack_checks": {k: v.to_dict() for k, v in self.slack_checks.items()},
            "deviation_checks": {k: v.to_dict() for k, v in self.deviation_checks.items()},
            "xi_minus_d_min": self.xi_minus_d_min,
            "xi_minus_d_candidates": self.xi_minus_d_candidates,
            "violation_count": self.violation_count,
            "violations": self.violations,
            "worst_instance": self.worst_instance,
        }


def _evaluate(inst: InterferometerInstance, labels: dict, summary: SweepSummary) -> dict:
    """Run every applicable check on one instance; returns the CSV row."""
    report = hierarchy_report(inst)
    row = dict(labels)
    row.update(s=inst.s, phi=inst.phi, v=report.v, p=report.p, q=report.q,
               d=report.d, xi=report.xi, r=report.r, chi=report.chi,
               xi_minus_d=report.xi - report.d)
    for name in ("o2p", "o2q", "o2_nuevita", "o1"):
        row[f"slack_{name}"] = report.slacks[name]
    row["slack_main"] = report.slacks.get("main")

    def slack(name, value):
        if not summary.slack_checks[name].update_slack(value):
            summary.violations.append({
                "check": name, "slack": value, "threshold": -SLACK_TOL,
                "labels": labels, "instance": inst.to_dict(),
            })
        if value < summary._worst_slack:
            summary._worst_slack = value
            summary.worst_instance = {
                "check": name, "slack": value, "labels": labels,
                "instance": inst.to_dict(),
            }

    def deviation(name, value):
        if not summary.deviation_checks[name].update_deviation(value, DEVIATION_CHECKS[name]):
            summary.violations.append({
                "check": name, "deviation": value, "threshold": DEVIATION_CHECKS[name],
                "labels": labels, "instance": inst.to_dict(),
            })

    for name in ("o2p", "o2q", "o2_nuevita", "o1"):
        slack(name, report.slacks[name])

    pure_marker = labels["wwm_class"] == "pure"

    if inst.n == 2:
        deviation("d_two_level", abs(d_two_level(report.p, report.r) - report.d))

    if inst.kernel.polarized and pure_marker:
        deviation("pure_saturation_xi", abs(report.v ** 2 + report.xi ** 2 - 1.0))
        deviation("pure_saturation_d", abs(report.d - report.xi))
        residual = pure_state_identity_check(inst)
        row["pure_identity_residual"] = residual
        deviation("pure_identity", residual)
    elif inst.kernel.polarized:
        bound = mixed_state_bound_check(inst)
        row["mixing_bound_slack"] = bound.slack
        slack("mixing_bound", bound.slack)
        deviation("contrast_recomposition", bound.recomposition)

    summary.xi_minus_d_min = (row["xi_minus_d"] if summary.xi_minus_d_min is None
                              else min(summary.xi_minus_d_min, row["xi_minus_d"]))

    if "main" in report.slacks:
        slack("main", report.slacks["main"])
        if report.chi is not None:
            eig = linalg.hermitian_eigen(inst.rho_d0)
            if report.p > report.r + TIE_ATOL:
                closed = report.p ** 2 / report.xi ** 2
            else:
                closed = chi_closed_form(float(eig.values[0]), float(max(eig.values[1], 0.0)),
                                         report.p, report.xi)
            row["chi_closed_dev"] = abs(report.chi - closed)
            deviation("chi_closed_form", row["chi_closed_dev"])
    elif row["xi_minus_d"] < -SLACK_TOL:
        # Outside the proven regime this is not a violation, only a recorded
        # counterexample candidate for the Xi >= D question.
        summary.xi_minus_d_candidates += 1

    return row


CSV_COLUMNS = (
    "index", "block_class", "wwm_class", "s_class", "n", "s", "phi",
    "v", "p", "q", "d", "xi", "r", "chi", "xi_minus_d",
    "slack_o2p", "slack_o2q", "slack_o2_nuevita", "slack_o1", "slack_main",
    "chi_closed_dev", "pure_identity_residual", "mixing_bound_slack",
)


def run_sweep(cfg: SweepConfig) -> tuple[SweepSummary, list]:
    """Generate and check every instance of the plan.

    Returns the summary plus one row dict per instance (CSV order).  Checks
    never abort the sweep; all violations are collected so a failing instance
    surfaces with full context.
    """
    summary = SweepSummary(config=cfg)
    summary.slack_checks = {name: CheckStats() for name in SLACK_CHECKS}
    summary.deviation_checks = {name: CheckStats() for name in DEVIATION_CHECKS}
    rows = []
    started = time.perf_counter()
    stream = 0
    for block_class, wwm_class, s_class, dim in sweep_plan(cfg):
        for _ in range(cfg.count):
            inst = generate_instance(cfg.seed, stream, dim, wwm_class, s_class, block_class)
            labels = {"index": stream, "block_class": block_class,
                      "wwm_class": wwm_class, "s_class": s_class, "n": dim}
            stream += 1
            try:
                rows.append(_evaluate(inst, labels, summary))
                summary.instance_count += 1
            except DegenerateBranchError:
                summary.degenerate_count += 1
            except IdentityError as exc:
                summary.violations.append({
                    "check": "internal_identity", "error": str(exc),
                    "labels": labels, "instance": inst.to_dict(),
                })
    summary.runtime_seconds = time.perf_counter() - started
    return summary, rows


def write_instances_csv(path, rows) -> None:
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row.get(col)) for col in CSV_COLUMNS) + "\n")
