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
It generates, validates and measures each marker dimension of a chunk as
``(N, n, n)`` stacks into the chunk's columns, and runs each check as one
masked reduction over them; the summary and the rows come out as from a
sweep done one instance at a time, each row as soon as its chunk is done.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, IdentityError, ValidationError
from .interferometer import (
    BranchKernel,
    InterferometerInstance,
    WwmBlocks,
    branch_kernel,
    global_blocks,
    instance_to_dict,
    pair_blocks,
    tilted_blocks,
    validate_instances,
)
from .measures import (
    SLACK_TOL,
    BranchSpectra,
    branch_spectra,
    deviations,
    hierarchy_reports,
    mixing_bounds,
    pure_identities,
)

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
        object.__setattr__(self, "state_classes", tuple(sorted(set(states))))
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
    formulas and the marker states then run on stacks, which give the same
    bits as one instance at a time.  Returns ``(s, blocks, rho_d0, phi)``
    unchecked: :func:`validate_instances` checks them, unitarity included.
    """
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
        else:
            if block_class == STRINGENCY_CLASS:
                # Keep both ways comfortably populated so branches never degenerate.
                thetas.append(float(gen.uniform(0.05, math.pi / 4.0)))
            shape = (2, 2, dim, dim)
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

    by_rank = {}
    for i, g in enumerate(rho_normals):
        by_rank.setdefault(g.shape[-1], []).append(i)
    rho = _gather([(members, linalg.density_from_normals(np.array([rho_normals[i] for i in members])))
                   for members in by_rank.values()], len(jobs))
    # The draws are freed once stacked, before the Haar QR: a pure marker's
    # normals are a view of the draw it shares with its block normals.
    del rho_normals
    built = []
    for block_class, normals in unitary_normals.items():
        if not normals:
            continue
        members, g = list(normals), np.array(list(normals.values()))
        normals.clear()
        u = linalg.haar_from_normals(g)
        if block_class == "general_unitary":
            b = global_blocks(u)
        elif block_class == "unitary_pair":
            b = pair_blocks(u[:, 0], u[:, 1])
        else:
            b = tilted_blocks(np.array(thetas), u[:, 0], u[:, 1])
        built.append((members, b))
    blocks = built[0][1] if len(built) == 1 else WwmBlocks.adopt(*(
        _gather([(members, getattr(b, name)) for members, b in built], len(jobs))
        for name in ("vpp", "vpm", "vmp", "vmm")))
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
    instance bit for bit.  It checks the class names and ``dim``, which
    ``_draw`` trusts.
    """
    if wwm_class not in WWM_CLASSES or s_class not in S_CLASSES:
        raise ValidationError(f"unknown state class ({wwm_class!r}, {s_class!r})")
    if block_class not in (*BLOCK_CLASSES, STRINGENCY_CLASS):
        raise ValidationError(f"unknown block class {block_class!r}")
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValidationError(f"dim must be an integer >= 1, got {dim!r}")
    s, b, rho, phi = _draw(seed, [(stream, block_class, wwm_class, s_class)], int(dim))
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


def _evaluate(k: BranchKernel, pure_marker: np.ndarray, at: np.ndarray, cols: dict, errors: dict) -> None:
    """Measure every instance of a kernel into the chunk columns ``cols`` at
    chunk positions ``at``: its report (setting ``measured``), then its
    |s| = 1 checks.  If any instance fails, a batch of several is evaluated
    again one instance at a time, and a batch of one records its failure in
    ``errors`` under its position."""
    try:
        # The mixing bound and the chi closed form read rho_d0's spectrum.
        sp = branch_spectra(k, k.polarized & (~pure_marker | (k.n == 2)))
        rep = hierarchy_reports(k, sp)
        for name, values in (("s", k.s), ("phi", k.phi), ("polarized", k.polarized), ("measured", True),
                             *rep.items(), *deviations(rep, sp).items()):
            cols[name][at] = values
        for members, batch_checks, names in (
                (k.polarized & pure_marker, pure_identities, ("pure_identity_residual",)),
                (k.polarized & ~pure_marker, mixing_bounds, ("mixing_bound_slack", "contrast_recomposition"))):
            if members.any():
                rows = _rows(members)
                values = batch_checks(k.take(rows), BranchSpectra(*(part[rows] for part in sp)))
                for name, column in zip(names, np.reshape(values, (len(names), -1))):
                    cols[name][at[rows]] = column
    except (DegenerateBranchError, IdentityError) as exc:
        if len(at) == 1:
            errors[int(at[0])] = exc
            return
        for i in range(len(at)):
            _evaluate(k.take([i]), pure_marker[[i]], at[[i]], cols, errors)


def _rows(mask: np.ndarray) -> slice | np.ndarray:
    """An index of the rows where ``mask`` holds: a slice, which takes
    views, when they are consecutive (as a lane's instances are), else
    their positions."""
    at = np.flatnonzero(mask)
    return slice(at[0], at[-1] + 1) if at[-1] - at[0] < at.size else at


def _instance_fields(s, blocks: WwmBlocks, rho_d0, phi, i: int) -> tuple:
    """The :func:`instance_to_dict` arguments of stack position ``i``, copied
    out of the stacks so that they do not keep the stacks alive."""
    return (float(s[i]), float(phi[i]),
            *(m[i].copy() for m in (rho_d0, blocks.vpp, blocks.vpm, blocks.vmp, blocks.vmm)))


def _slack_record(name: str, value: float, labels: dict, fields: tuple) -> dict:
    return {"check": name, "slack": value, "labels": labels, "instance": instance_to_dict(*fields)}


def _record(chunk: range, lanes: list, cols: dict, errors: dict, instance: dict,
            summary: SweepSummary) -> Iterator[dict]:
    """Run every check on a chunk's columns, each as one masked reduction,
    update ``summary`` as checking one instance at a time in index order
    would, and yield the rows of the instances that pass every check.

    ``instance[i]()`` gives the :func:`instance_to_dict` arguments of chunk
    position ``i``.
    """
    def labels(i):
        return dict(zip(CSV_COLUMNS, (chunk.start + i, *lanes[chunk.start + i])))

    measured, polarized, pure = cols["measured"], cols["polarized"], cols["pure"]
    pure_pol, mixed_pol = polarized & pure, polarized & ~pure
    failed, identity_failed = np.zeros_like(measured), np.zeros_like(measured)
    failed[list(errors)] = True
    identity_failed[[i for i, exc in errors.items() if isinstance(exc, IdentityError)]] = True
    # A failure stops an instance's checks where it is raised.
    checked = measured & ~failed
    # Each check in the order one instance runs them: (check, column, where it applies).
    checks = [(name, f"slack_{name}", measured) for name in ("o2p", "o2q", "o2_nuevita", "o1")] + [
        ("d_two_level", "d_two_level", measured & np.array([lanes[i][3] == 2 for i in chunk])),
        ("pure_saturation_xi", "pure_saturation_xi", measured & pure_pol),
        ("pure_saturation_d", "pure_saturation_d", measured & pure_pol),
        ("internal_identity", None, identity_failed),
        ("pure_identity", "pure_identity_residual", checked & pure_pol),
        ("mixing_bound", "mixing_bound_slack", checked & mixed_pol),
        ("contrast_recomposition", "contrast_recomposition", checked & mixed_pol),
        ("main", "slack_main", checked & ~np.isnan(cols["slack_main"])),
        ("chi_closed_form", "chi_closed_dev", checked & ~np.isnan(cols["chi"])),
    ]
    found = []
    # Each instance's smallest slack and its check, the first of a tie.
    lowest, lowest_check = np.full(len(chunk), np.inf), np.empty(len(chunk), dtype=object)
    for rank, (name, column, applies) in enumerate(checks):
        at = np.flatnonzero(applies)
        if column is None:
            found += [(i, rank, {"check": name, "error": str(errors[i]), "labels": labels(i),
                                 "instance": instance_to_dict(*instance[i]())}) for i in at.tolist()]
            continue
        if not at.size:
            continue
        values = cols[column][at]
        slack = name in SLACK_CHECKS
        ok = values >= -SLACK_TOL if slack else values <= DEVIATION_CHECKS[name]
        stats = (summary.slack_checks if slack else summary.deviation_checks)[name]
        worst = float(values.min() if slack else values.max())
        stats.count += at.size
        stats.violations += int(np.count_nonzero(~ok))
        stats.worst = worst if stats.worst is None else (min if slack else max)(stats.worst, worst)
        kind, threshold = ("slack", -SLACK_TOL) if slack else ("deviation", DEVIATION_CHECKS[name])
        found += [(i, rank, {"check": name, kind: value, "threshold": threshold, "labels": labels(i),
                             "instance": instance_to_dict(*instance[i]())})
                  for i, value in zip(at[~ok].tolist(), values[~ok].tolist())]
        if slack:
            lower = values < lowest[at]
            lowest[at[lower]], lowest_check[at[lower]] = values[lower], name
    summary.violations += [record for *_, record in sorted(found, key=lambda f: f[:2])]
    xi_minus_d = cols["xi_minus_d"][checked]
    if xi_minus_d.size:
        low = float(xi_minus_d.min())
        summary.xi_minus_d_min = low if summary.xi_minus_d_min is None else min(summary.xi_minus_d_min, low)
    # Outside the proven regime Xi < D is not a violation, only a recorded
    # counterexample candidate for the Xi >= D question.
    summary.xi_minus_d_candidates += int(np.count_nonzero(
        checked & np.isnan(cols["slack_main"]) & (cols["xi_minus_d"] < -SLACK_TOL)))
    summary.degenerate_count += len(errors) - int(np.count_nonzero(identity_failed))
    summary.instance_count += int(np.count_nonzero(checked))

    cells = [np.where(np.isnan(cols[name]), None, cols[name]).tolist() for name in CSV_COLUMNS[5:]]
    for i, (row, low, values) in enumerate(zip(checked.tolist(), lowest.tolist(), zip(*cells))):
        # The worst instance moves row by row, so it can be read mid-sweep.
        # It holds its own fields, not its group's stacks, until it is read.
        if low < summary._worst_slack:
            summary._worst_slack = low
            summary._worst_record = functools.partial(_slack_record, lowest_check[i], low, labels(i), instance[i]())
        if row:
            yield dict(zip(CSV_COLUMNS, (chunk.start + i, *lanes[chunk.start + i], *values)))


CSV_COLUMNS = (
    "index", "block_class", "wwm_class", "s_class", "n", "s", "phi",
    "v", "p", "q", "d", "xi", "r", "chi", "xi_minus_d",
    "slack_o2p", "slack_o2q", "slack_o2_nuevita", "slack_o1", "slack_main",
    "chi_closed_dev", "pure_identity_residual", "mixing_bound_slack",
)
# The float columns of a chunk, one for each column _evaluate writes: the
# CSV's measured cells, the visibility bounds and the check-only deviations.
_MEASURED = CSV_COLUMNS[5:] + ("v_bound_d", "v_bound_xi", "contrast_recomposition", "d_two_level",
                               "pure_saturation_xi", "pure_saturation_d")

# Instances are generated and measured together until their marker matrices
# hold this many entries (the sum of n^2): 1024 instances at n = 2, 256 at
# n = 4, 64 at n = 8.  Each chunk pays a fixed numpy and Python cost, about
# 1.2 ms per marker dimension in it, that a larger chunk spreads over more
# instances, while its stacks grow with n^2 per instance.  A --dims 8 sweep
# runs 13 chunks here, 50 at 1024 entries, and took 0.12 s instead of
# 0.14 s; its traced peak is 1.4 MiB (0.4 MiB at 1024 entries, 2.7 MiB at
# 8192), because each chunk frees its draws once they are stacked, holds
# its blocks once, and is freed before the next one starts.
_CHUNK_ENTRIES = 4096


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


def _measure(seed: int, lanes: list, chunk: range) -> tuple[dict, dict, dict]:
    """Generate, validate and measure a chunk, one marker dimension at a
    time: the chunk's columns, its failures and its instances' fields, each
    by chunk position, as :func:`_record` takes them."""
    # Float columns start as NaN, an empty cell; flag columns as False.
    cols = {name: np.full(len(chunk), np.nan) for name in _MEASURED}
    cols.update((name, np.zeros(len(chunk), dtype=bool)) for name in ("measured", "polarized"))
    cols["pure"] = np.array([lanes[i][1] == "pure" for i in chunk])
    by_dim, errors, instance = {}, {}, {}
    for stream in chunk:
        by_dim.setdefault(lanes[stream][3], []).append(stream)
    for dim, streams in by_dim.items():
        s, blocks, rho, phi = _draw(seed, [(i, *lanes[i][:3]) for i in streams], dim)
        rho = validate_instances(s, blocks, rho, phi)
        at = np.array(streams) - chunk.start
        _evaluate(branch_kernel(blocks, s, rho, phi), cols["pure"][at], at, cols, errors)
        for pos, i in enumerate(at.tolist()):
            instance[i] = functools.partial(_instance_fields, s, blocks, rho, phi, pos)
    return cols, errors, instance


def iter_sweep(cfg: SweepConfig, summary: SweepSummary) -> Iterator[dict]:
    """Generate and check every instance of the plan, yielding one CSV row
    per non-degenerate instance in index order.

    ``summary`` takes a chunk's checks before its first row, its worst
    instance row by row, and ``runtime_seconds`` after the last.  Checks never
    abort the sweep; all violations are collected so a failing instance
    surfaces with full context.
    """
    started = time.perf_counter()
    lanes = [lane for lane in sweep_plan(cfg) for _ in range(cfg.count)]
    for chunk in _chunks([lane[3] for lane in lanes]):
        # The chunk's stacks live as long as its _record, not into the next chunk.
        yield from _record(chunk, lanes, *_measure(cfg.seed, lanes, chunk), summary)
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
