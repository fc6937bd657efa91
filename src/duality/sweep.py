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

The engine walks the plan in index order, a chunk of instances at a time.
Inside a chunk it groups the instances by marker dimension and generates,
validates and measures each group as ``(N, n, n)`` stacks; the per-instance
checks and the summary then run over the chunk in index order, and each row
is yielded as soon as its chunk is done.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, DualityError, IdentityError, ValidationError
from .interferometer import (
    BranchKernel,
    InterferometerInstance,
    WwmBlocks,
    branch_kernel,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
    instance_to_dict,
    validate_instances,
)
from .measures import (
    SLACK_TOL,
    DualityReport,
    MixingBound,
    chi_closed_form,
    d_two_level,
    hierarchy_reports,
    mixing_bounds,
    pure_identities,
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
        for name, low, high in (("seed", 0, 1 << 64), ("count", 1, None)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low or (high is not None and value >= high)):
                bounds = f"in [{low}, 2**64)" if high else f">= {low}"
                raise ValidationError(f"{name} must be an integer {bounds}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if any(isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in self.dims):
            raise ValidationError(f"dims must be integers, got {self.dims!r}")
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


def _draw(seed: int, jobs: list, dim: int) -> tuple:
    """Generate instances of marker dimension ``dim`` as stacks.

    ``jobs`` lists (stream, block_class, wwm_class, s_class) per instance.
    Each instance draws from the Philox stream keyed by (seed, stream) in a
    fixed order: inversion and phase, splitter angle (tilted pairs only),
    block unitaries, marker rank, marker state.  The Haar QR, the block
    constructors' unitarity checks and the marker states then run on stacks,
    which give the same bits as one instance at a time.  Returns
    ``(s, blocks, rho_d0, phi)``; the instances are not validated yet.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    streams = linalg.PhiloxStreams(seed)
    s, phi, thetas, rho_normals = [], [], [], []
    unitary_normals = {"unitary_pair": {}, "general_unitary": {}, STRINGENCY_CLASS: {}}
    for pos, (stream, block_class, wwm_class, s_class) in enumerate(jobs):
        gen = streams(stream)
        # uniform(low, high) is low + (high - low) * random(), which is exact
        # for (0, 1), (-1, 1) and (0, 2 pi), so s and phi from one random(2)
        # equal uniform draws of them bit for bit.
        u, v = gen.random(2).tolist()
        s.append((1.0 if u < 0.5 else -1.0) if s_class == "s_pure" else -1.0 + 2.0 * u)
        phi.append(2.0 * math.pi * v)
        if block_class == "general_unitary":
            shape = (2, 2 * dim, 2 * dim)
        elif block_class in unitary_normals:
            if block_class == STRINGENCY_CLASS:
                # Keep both ways comfortably populated so branches never degenerate.
                thetas.append(float(gen.uniform(0.05, math.pi / 4.0)))
            shape = (2, 2, dim, dim)
        else:
            raise ValidationError(f"unknown block class {block_class!r}")
        if wwm_class == "pure":
            # A rank-one marker draws no rank, so its normals follow the
            # blocks' in the same stream and one call draws both.
            size = math.prod(shape)
            g = gen.standard_normal(size + 2 * dim)
            unitary_normals[block_class][pos] = g[:size].reshape(shape)
            rho_normals.append(g[size:].reshape(2, dim, 1))
        else:
            unitary_normals[block_class][pos] = gen.standard_normal(shape)
            rho_normals.append(gen.standard_normal((2, dim, int(gen.integers(2, dim + 1)))))

    built = []
    for block_class, normals in unitary_normals.items():
        if not normals:
            continue
        u = linalg.haar_from_normals(np.array(list(normals.values())))
        if block_class == "general_unitary":
            b = from_global_unitary(u)
        elif block_class == "unitary_pair":
            b = from_unitary_pair(u[:, 0], u[:, 1])
        else:
            b = from_tilted_pair(np.array(thetas), u[:, 0], u[:, 1])
        built.append((list(normals), b))
    blocks = built[0][1] if len(built) == 1 else WwmBlocks(*(
        _gather([(members, getattr(b, name)) for members, b in built], len(jobs))
        for name in ("vpp", "vpm", "vmp", "vmm")))

    by_rank = {}
    for i, g in enumerate(rho_normals):
        by_rank.setdefault(g.shape[-1], []).append(i)
    rho = _gather([(members, linalg.density_from_normals(np.array([rho_normals[i] for i in members])))
                   for members in by_rank.values()], len(jobs))
    return np.array(s), blocks, rho, np.array(phi)


def _gather(parts: list, size: int) -> np.ndarray:
    """The rows of ``size`` instances from (members, rows) parts that
    together cover every instance; a single part is already in order."""
    if len(parts) == 1:
        return parts[0][1]
    out = np.empty((size,) + parts[0][1].shape[1:], dtype=parts[0][1].dtype)
    for members, rows in parts:
        out[members] = rows
    return out


def generate_instance(seed: int, stream: int, dim: int, wwm_class: str,
                      s_class: str, block_class: str) -> InterferometerInstance:
    """Build one instance from the Philox stream keyed by (seed, stream).

    It is the sweep's generator on a batch of one, so it replays the sweep's
    instance bit for bit.
    """
    s, b, rho, phi = _draw(seed, [(stream, block_class, wwm_class, s_class)], dim)
    return InterferometerInstance(s=float(s[0]), blocks=WwmBlocks(b.vpp[0], b.vpm[0], b.vmp[0], b.vmm[0]),
                                  rho_d0=rho[0], phi=float(phi[0]))


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
    slack_checks: dict = field(default_factory=lambda: {name: CheckStats() for name in SLACK_CHECKS})
    deviation_checks: dict = field(
        default_factory=lambda: {name: CheckStats() for name in DEVIATION_CHECKS})
    xi_minus_d_min: float | None = None
    xi_minus_d_candidates: int = 0
    violations: list = field(default_factory=list)
    _worst_slack: float = math.inf
    _worst_record: Callable[[], dict] | dict | None = None

    @property
    def worst_instance(self) -> dict | None:
        """The smallest slack so far, with its check, labels and instance JSON.

        A sweep finds a new smallest slack many times, so the record is
        built when it is first read, not each time.
        """
        if callable(self._worst_record):
            self._worst_record = self._worst_record()
        return self._worst_record

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


class _Outcome(NamedTuple):
    """One instance's inputs ``s`` and ``phi`` and its measured values, or
    the failure that stopped them.

    ``check`` is the pure-identity residual or the mixing bound of a
    polarized instance; ``spectrum`` the eigenvalues of ``rho_d0`` where the
    chi closed form applies.  A stored exception is raised by
    :func:`_record` at the point where the per-instance checks reach it.
    """

    s: float
    phi: float
    report: DualityReport | DualityError
    polarized: bool = False
    check: float | MixingBound | DualityError | None = None
    spectrum: list | None = None


def _evaluate(k: BranchKernel, pure_marker: np.ndarray) -> list[_Outcome]:
    """Reports and |s| = 1 checks of every instance of a kernel.

    A failure in any instance raises for the whole batch.
    """
    reports = hierarchy_reports(k)
    polarized = k.polarized.tolist()
    checks = [None] * len(reports)
    for mask, batch_checks in ((k.polarized & pure_marker, pure_identities),
                               (k.polarized & ~pure_marker, mixing_bounds)):
        members = np.flatnonzero(mask)
        if members.size:
            for i, value in zip(members.tolist(), batch_checks(k.take(members))):
                checks[i] = value
    spectra = [None] * len(reports)
    members = [i for i, report in enumerate(reports) if report.chi is not None]
    if members:
        for i, values in zip(members, linalg.hermitian_eigen(k.rho_d0[members]).values.tolist()):
            spectra[i] = values
    return [_Outcome(*outcome) for outcome in
            zip(k.s.tolist(), k.phi.tolist(), reports, polarized, checks, spectra)]


def _evaluate_each(k: BranchKernel, pure_marker: np.ndarray) -> list[_Outcome]:
    """:func:`_evaluate` one instance at a time, keeping each failure with its instance."""
    out = []
    for i in range(len(pure_marker)):
        one, pure_one = k.take([i]), pure_marker[[i]]
        s, phi = float(one.s[0]), float(one.phi[0])
        try:
            report = hierarchy_reports(one)[0]
        except DegenerateBranchError as exc:
            out.append(_Outcome(s, phi, exc))
            continue
        try:
            out.extend(_evaluate(one, pure_one))
        except (DegenerateBranchError, IdentityError) as exc:
            out.append(_Outcome(s, phi, report, True, exc))
    return out


def _instance_dict(s, blocks: WwmBlocks, rho_d0, phi, i: int) -> dict:
    return instance_to_dict(s[i], phi[i], rho_d0[i], blocks.vpp[i], blocks.vpm[i],
                            blocks.vmp[i], blocks.vmm[i])


def _record(outcome: _Outcome, labels: dict, instance, summary: SweepSummary) -> dict:
    """Run every applicable check on one instance; returns the CSV row.

    ``instance()`` gives the instance's JSON object for violation records.
    """
    s, phi, report, polarized, check, spectrum = outcome
    if isinstance(report, DualityError):
        raise report
    row = dict(labels)
    row.update(s=s, phi=phi, v=report.v, p=report.p, q=report.q, d=report.d, xi=report.xi, r=report.r,
               chi=report.chi, xi_minus_d=report.xi - report.d)
    for name in ("o2p", "o2q", "o2_nuevita", "o1"):
        row[f"slack_{name}"] = report.slacks[name]
    row["slack_main"] = report.slacks.get("main")

    def slack(name, value):
        if not summary.slack_checks[name].update_slack(value):
            summary.violations.append({
                "check": name, "slack": value, "threshold": -SLACK_TOL,
                "labels": labels, "instance": instance(),
            })
        if value < summary._worst_slack:
            summary._worst_slack = value
            summary._worst_record = lambda: {
                "check": name, "slack": value, "labels": labels,
                "instance": instance(),
            }

    def deviation(name, value):
        if not summary.deviation_checks[name].update_deviation(value, DEVIATION_CHECKS[name]):
            summary.violations.append({
                "check": name, "deviation": value, "threshold": DEVIATION_CHECKS[name],
                "labels": labels, "instance": instance(),
            })

    for name in ("o2p", "o2q", "o2_nuevita", "o1"):
        slack(name, report.slacks[name])

    pure_marker = labels["wwm_class"] == "pure"

    if labels["n"] == 2:
        deviation("d_two_level", abs(d_two_level(report.p, report.r) - report.d))

    if polarized and pure_marker:
        deviation("pure_saturation_xi", abs(report.v ** 2 + report.xi ** 2 - 1.0))
        deviation("pure_saturation_d", abs(report.d - report.xi))
    if isinstance(check, DualityError):
        raise check
    if polarized and pure_marker:
        row["pure_identity_residual"] = check
        deviation("pure_identity", check)
    elif polarized:
        row["mixing_bound_slack"] = check.slack
        slack("mixing_bound", check.slack)
        deviation("contrast_recomposition", check.recomposition)

    summary.xi_minus_d_min = (row["xi_minus_d"] if summary.xi_minus_d_min is None
                              else min(summary.xi_minus_d_min, row["xi_minus_d"]))

    if "main" in report.slacks:
        slack("main", report.slacks["main"])
        if report.chi is not None:
            if report.p > report.r + TIE_ATOL:
                closed = report.p ** 2 / report.xi ** 2
            else:
                closed = chi_closed_form(spectrum[0], max(spectrum[1], 0.0), report.p, report.xi)
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

# Instances are generated and measured together until their marker matrices
# hold this many entries (the sum of n^2): 256 instances at n = 2, 64 at
# n = 4, 16 at n = 8.  The stacks' memory grows with n^2 per instance, while
# numpy's per-call overhead, which the stacks spread, does not: at a fixed
# 128 instances the n = 8 stacks raised the peak memory of a sweep by 14%,
# and at a fixed 32 small-n sweeps ran 1.5x slower.  At this size the peak
# memory of an n = 8 sweep stays at that of one instance at a time.
_CHUNK_ENTRIES = 1024


def _chunks(dims: list) -> Iterator[range]:
    """Consecutive index ranges whose marker dimensions ``dims`` hold at
    most ``_CHUNK_ENTRIES`` entries (or a single instance)."""
    start, entries = 0, 0
    for i, dim in enumerate(dims):
        if entries + dim * dim > _CHUNK_ENTRIES and i > start:
            yield range(start, i)
            start, entries = i, 0
        entries += dim * dim
    if start < len(dims):
        yield range(start, len(dims))


def iter_sweep(cfg: SweepConfig, summary: SweepSummary) -> Iterator[dict]:
    """Generate and check every instance of the plan, yielding one CSV row
    per non-degenerate instance in index order.

    ``summary`` is updated in index order as the rows are produced, and its
    ``runtime_seconds`` is set once the last row is taken.  Checks never
    abort the sweep; all violations are collected so a failing instance
    surfaces with full context.
    """
    started = time.perf_counter()
    plan = sweep_plan(cfg)
    lanes = [lane for lane in plan for _ in range(cfg.count)]
    # Instance i belongs to lane i // count; its labels add the index.
    lane_labels = [{"block_class": block_class, "wwm_class": wwm_class, "s_class": s_class, "n": dim}
                   for block_class, wwm_class, s_class, dim in plan]
    for chunk in _chunks([lane[3] for lane in lanes]):
        by_dim = {}
        for stream in chunk:
            by_dim.setdefault(lanes[stream][3], []).append(stream)
        measured = {}
        for dim, streams in by_dim.items():
            s, blocks, rho, phi = _draw(cfg.seed, [(i, *lanes[i][:3]) for i in streams], dim)
            rho = validate_instances(s, blocks, rho, phi)
            k = branch_kernel(blocks, s, rho, phi)
            pure_marker = np.array([lanes[i][1] == "pure" for i in streams])
            try:
                outcomes = _evaluate(k, pure_marker)
            except (DegenerateBranchError, IdentityError):
                outcomes = _evaluate_each(k, pure_marker)
            for pos, (stream, outcome) in enumerate(zip(streams, outcomes)):
                measured[stream] = (outcome, functools.partial(_instance_dict, s, blocks, rho, phi, pos))
        for stream in chunk:
            labels = {"index": stream, **lane_labels[stream // cfg.count]}
            outcome, instance = measured.pop(stream)
            try:
                row = _record(outcome, labels, instance, summary)
            except DegenerateBranchError:
                summary.degenerate_count += 1
                continue
            except IdentityError as exc:
                summary.violations.append({
                    "check": "internal_identity", "error": str(exc),
                    "labels": labels, "instance": instance(),
                })
                continue
            summary.instance_count += 1
            yield row
    summary.runtime_seconds = time.perf_counter() - started


def run_sweep(cfg: SweepConfig) -> tuple[SweepSummary, list]:
    """Generate and check every instance of the plan.

    Returns the summary plus one row dict per instance (CSV order); see
    :func:`iter_sweep`, which produces the rows without holding them.
    """
    summary = SweepSummary(config=cfg)
    rows = list(iter_sweep(cfg, summary))
    return summary, rows


def write_instances_csv(path, rows) -> None:
    """Write ``instances.csv`` from any iterable of row dicts, one line per row as it arrives.

    A float cell is written to 12 significant digits, a missing or None one
    as empty and any other as ``str(value)``.  Each line is one ``%``
    format, with a template made once per pattern of cell types.
    """
    templates = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            values = tuple(map(row.get, CSV_COLUMNS))
            kinds = tuple(map(type, values))
            template = templates.get(kinds)
            if template is None:
                # "%.0s" prints nothing for its None.
                template = templates[kinds] = ",".join(
                    "%.0s" if value is None else "%.12g" if isinstance(value, float) else "%s"
                    for value in values) + "\n"
            fh.write(template % values)
