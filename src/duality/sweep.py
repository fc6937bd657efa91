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
Each marker dimension of a chunk is generated as ``(N, n, n)`` stacks and
measured by :func:`~duality.measures.evaluate` into the chunk's columns, and
the checks of :data:`~duality.measures.CHECKS` run as one stacked pass over
them; the summary and the rows come out as from a sweep done one instance at
a time.  The sweep yields each chunk, columns and all, as it ends
(:class:`SweepChunk`), and ``instances.csv`` is formatted from those columns.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import IdentityError, ValidationError
from .interferometer import (
    InterferometerInstance,
    WwmBlocks,
    global_blocks,
    instance_to_dict,
    pair_blocks,
    tilted_blocks,
)
from .measures import CHECKS, SLACK_TOL, evaluate

WWM_CLASSES = ("pure", "mixed")
S_CLASSES = ("s_pure", "s_mixed")
BLOCK_CLASSES = ("unitary_pair", "general_unitary")
STRINGENCY_CLASS = "tilted_pair"
MAX_DIM = 8


@dataclass(frozen=True)
class SweepConfig:
    """What to generate: ``count`` instances per (state class, block class, dim)."""

    seed: int
    count: int
    dims: tuple = (2, 3, 4)
    state_classes: tuple = tuple((w, s) for w in WWM_CLASSES for s in S_CLASSES)
    block_classes: tuple = BLOCK_CLASSES

    def __post_init__(self):
        object.__setattr__(self, "seed", linalg.integer(self.seed, "seed", 0, linalg.MAX_KEY))
        object.__setattr__(self, "count", linalg.integer(self.count, "count", 1))
        try:
            dims = tuple(sorted({linalg.integer(d, "each of dims", 2, MAX_DIM) for d in self.dims}))
        except TypeError:
            raise ValidationError(f"dims must be a collection of integers, got {self.dims!r}") from None
        if not dims:
            raise ValidationError(f"dims must be a non-empty subset of 2..{MAX_DIM}, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        try:
            states = {(wwm, s_class) for wwm, s_class in self.state_classes}
        except (TypeError, ValueError):
            raise ValidationError(
                f"state_classes must be (wwm, s) class pairs, got {self.state_classes!r}") from None
        for wwm, s_class in states:
            if wwm not in WWM_CLASSES or s_class not in S_CLASSES:
                raise ValidationError(f"unknown state class ({wwm!r}, {s_class!r})")
        if not states:
            raise ValidationError("state_classes must not be empty")
        object.__setattr__(self, "state_classes", tuple(sorted(states)))
        try:
            blocks = tuple(sorted(set(self.block_classes), key=BLOCK_CLASSES.index))
        except (TypeError, ValueError):
            raise ValidationError(
                f"block_classes must be names from {BLOCK_CLASSES}, got {self.block_classes!r}") from None
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
    unchecked: :func:`~duality.measures.evaluate` checks them, unitarity included.
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
    instance bit for bit.  It checks the class names and ``dim`` (1 to
    ``MAX_DIM``), which ``_draw`` trusts.
    """
    if not all(isinstance(label, str) for label in (wwm_class, s_class, block_class)):
        raise ValidationError(f"class labels must be strings, got {(wwm_class, s_class, block_class)!r}")
    if wwm_class not in WWM_CLASSES or s_class not in S_CLASSES:
        raise ValidationError(f"unknown state class ({wwm_class!r}, {s_class!r})")
    if block_class not in (*BLOCK_CLASSES, STRINGENCY_CLASS):
        raise ValidationError(f"unknown block class {block_class!r}")
    dim = linalg.integer(dim, "dim", 1, MAX_DIM)
    if wwm_class == "mixed" and dim < 2:
        raise ValidationError(f"a mixed marker needs dim >= 2, got {dim!r}")
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


def _check_stats(kind: str) -> dict:
    """A :class:`CheckStats` per check of ``kind``, in summary.json's key order."""
    return {c.name: CheckStats() for c in sorted((c for c in CHECKS if c.kind == kind), key=lambda c: c.listed)}


@dataclass
class SweepSummary:
    """What a sweep has found so far, updated chunk by chunk, so that it can be read mid-sweep.

    ``worst_instance`` is the first smallest slack, by instance and then in run order, as
    ``{"check", "slack", "labels", "instance"}``, its JSON built at each read from ``_worst``, which holds
    copies of the instance's fields: a chunk that lowers the smallest slack replaces it, one that ties keeps it.
    """

    config: SweepConfig
    instance_count: int = 0
    degenerate_count: int = 0
    runtime_seconds: float = 0.0
    slack_checks: dict = field(default_factory=lambda: _check_stats("slack"))
    deviation_checks: dict = field(default_factory=lambda: _check_stats("deviation"))
    xi_minus_d_min: float | None = None
    xi_minus_d_candidates: int = 0
    violations: list = field(default_factory=list)
    _worst: dict | None = None

    @property
    def worst_instance(self) -> dict | None:
        return None if self._worst is None else {**self._worst, "instance": instance_to_dict(*self._worst["instance"])}

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "instance_count": self.instance_count,
            "degenerate_count": self.degenerate_count,
            "runtime_seconds": self.runtime_seconds,
            "slack_checks": {k: asdict(v) for k, v in self.slack_checks.items()},
            "deviation_checks": {k: asdict(v) for k, v in self.deviation_checks.items()},
            "xi_minus_d_min": self.xi_minus_d_min,
            "xi_minus_d_candidates": self.xi_minus_d_candidates,
            "violation_count": self.violation_count,
            "violations": self.violations,
            "worst_instance": self.worst_instance,
        }


class SweepChunk(NamedTuple):
    """One chunk of a sweep, as :func:`iter_sweep` yields it.

    ``indices`` are its instances' plan indices and ``lanes[i]`` the plan
    lane (block_class, wwm_class, s_class, n) of chunk position ``i``.
    ``columns`` maps each column of :func:`~duality.measures.evaluate`, the
    CSV's ``s`` to ``mixing_bound_slack`` among them, to one array over the
    chunk, NaN where a cell is empty.  ``checked`` marks the instances that
    passed every check, each of which gets a CSV row.
    """

    indices: range
    lanes: list
    columns: dict
    checked: np.ndarray

    def rows(self) -> list:
        """One dict per checked instance, keyed by ``CSV_COLUMNS``, ``None`` where a cell is empty."""
        cells = [np.where(np.isnan(self.columns[name]), None, self.columns[name]).tolist()
                 for name in CSV_COLUMNS[5:]]
        return [dict(zip(CSV_COLUMNS, (self.indices[i], *self.lanes[i], *values)))
                for i, (row, values) in enumerate(zip(self.checked.tolist(), zip(*cells))) if row]


def _record(chunk: range, lanes: list, cols: dict, errors: dict, fields: Callable[[int], tuple],
            summary: SweepSummary) -> SweepChunk:
    """Run every check of ``CHECKS`` on a chunk's columns in one stacked
    pass, and update ``summary`` as checking one instance at a time in index
    order would.

    ``lanes[i]`` is the plan lane and ``fields(i)`` the
    :func:`instance_to_dict` arguments of chunk position ``i``, copied out
    of the stacks: a violation takes their JSON and a new smallest slack the
    copies, so no view of the chunk's stacks outlives the call.
    """
    def labels(i):
        return dict(zip(CSV_COLUMNS, (chunk.start + i, *lanes[i])))

    checked = ~np.isin(np.arange(len(chunk)), list(errors))
    # A row per check in run order, NaN where it does not apply or was not
    # reached, deviations negated so that every row passes at >= its bound.  A
    # failure stops an instance's checks where it is raised: those after the error row skip it.
    error = [c.kind for c in CHECKS].index("error")
    sign = np.array([1.0 if c.kind == "slack" else -1.0 for c in CHECKS])
    signed = np.array([cols[c.column] if c.column else np.full(len(chunk), np.nan) for c in CHECKS])
    applies = ~np.isnan(signed)
    applies[error + 1:] &= checked
    signed *= sign[:, None]
    signed[~applies] = np.inf
    violating = signed < (sign * np.array([c.threshold if c.column else np.inf for c in CHECKS]))[:, None]
    violating[error, [i for i, exc in errors.items() if isinstance(exc, IdentityError)]] = True
    stats = {**summary.slack_checks, **summary.deviation_checks}
    for c, count, failures, worst in zip(CHECKS, applies.sum(axis=1).tolist(), violating.sum(axis=1).tolist(),
                                          (sign * signed.min(axis=1)).tolist()):
        if count:
            st = stats[c.name]
            st.count, st.violations = st.count + count, st.violations + failures
            st.worst = worst if st.worst is None else (min if c.kind == "slack" else max)(st.worst, worst)
    for i, rank in zip(*(a.tolist() for a in np.nonzero(violating.T))):  # by instance, then in run order
        c, value = CHECKS[rank], float(sign[rank] * signed[rank, i])
        found = {c.kind: value, "threshold": c.threshold} if c.column else {"error": str(errors[i])}
        summary.violations.append({"check": c.name, **found, "labels": labels(i),
                                   "instance": instance_to_dict(*fields(i))})
    xi_minus_d = cols["xi_minus_d"][checked]
    if xi_minus_d.size:
        low = float(xi_minus_d.min())
        summary.xi_minus_d_min = low if summary.xi_minus_d_min is None else min(summary.xi_minus_d_min, low)
    # Outside the proven regime Xi < D is not a violation, only a recorded
    # counterexample candidate for the Xi >= D question.
    summary.xi_minus_d_candidates += int(np.count_nonzero(
        checked & np.isnan(cols["slack_main"]) & (cols["xi_minus_d"] < -SLACK_TOL)))
    summary.degenerate_count += len(errors) - int(np.count_nonzero(violating[error]))
    summary.instance_count += int(np.count_nonzero(checked))

    # The chunk's first smallest slack, by instance and then in run order;
    # a later chunk that only ties it keeps the earlier record.
    signed[sign < 0.0] = np.inf
    i = int(signed.min(axis=0).argmin())
    rank = int(signed[:, i].argmin())
    if signed[rank, i] < (math.inf if summary._worst is None else summary._worst["slack"]):
        summary._worst = {"check": CHECKS[rank].name, "slack": float(signed[rank, i]), "labels": labels(i),
                          "instance": fields(i)}
    return SweepChunk(chunk, lanes, cols, checked)


CSV_COLUMNS = (
    "index", "block_class", "wwm_class", "s_class", "n", "s", "phi",
    "v", "p", "q", "d", "xi", "r", "chi", "xi_minus_d",
    *(c.column for c in sorted((c for c in CHECKS if c.csv is not None), key=lambda c: c.csv)),
)

# Instances are generated and measured together until their marker matrices
# hold this many entries (the sum of n^2): 1024 instances at n = 2, 256 at
# n = 4, 64 at n = 8.  Each chunk pays a fixed numpy and Python cost, about
# 0.7 ms per marker dimension in it, that a larger chunk spreads over more
# instances, while its stacks grow with n^2 per instance.  A --dims 8 sweep
# runs 13 chunks here, 50 at 1024 entries, and took 0.12 s instead of
# 0.14 s; its traced peak is 1.4 MiB (0.4 MiB at 1024 entries, 2.7 MiB at
# 8192), because each chunk frees its draws once they are stacked, holds
# its blocks once, and is freed before the next one starts.
_CHUNK_ENTRIES = 4096


def _chunks(dims: Iterable[int]) -> Iterator[range]:
    """Consecutive index ranges whose marker dimensions, read lazily from
    ``dims``, hold at most ``_CHUNK_ENTRIES`` entries (or a single instance)."""
    start, end, entries = 0, 0, 0
    for i, dim in enumerate(dims):
        if entries + dim * dim > _CHUNK_ENTRIES and i > start:
            yield range(start, i)
            start, entries = i, 0
        entries += dim * dim
        end = i + 1
    if start < end:
        yield range(start, end)


def _measure(seed: int, lanes: list, chunk: range) -> tuple[dict, dict, Callable[[int], tuple]]:
    """Generate a chunk of plan lanes ``lanes`` and :func:`~duality.measures.evaluate`
    it, one marker dimension at a time: its columns, its failures and
    ``fields(i)``, the :func:`instance_to_dict` arguments of chunk position
    ``i`` copied out of its group's stacks, as :func:`_record` takes them."""
    by_dim, place, stacks, groups, errors = {}, [], {}, [], {}
    for i, lane in enumerate(lanes):  # place[i]: the dimension and stack position of chunk position i
        place.append((lane[3], len(by_dim.setdefault(lane[3], []))))
        by_dim[lane[3]].append(i)
    for dim, positions in by_dim.items():
        stacks[dim] = _draw(seed, [(chunk.start + i, *lanes[i][:3]) for i in positions], dim)
        cols, failed = evaluate(*stacks[dim])
        groups.append((np.array(positions), cols))
        errors.update((positions[i], exc) for i, exc in failed.items())
    cols = {name: _gather([(at, group[name]) for at, group in groups], len(chunk)) for name in groups[0][1]}

    def fields(i: int) -> tuple:
        dim, k = place[i]
        s, blocks, rho, phi = stacks[dim]
        return (float(s[k]), float(phi[k]), *(m[k].copy() for m in (rho, blocks.vpp, blocks.vpm, blocks.vmp, blocks.vmm)))

    return cols, errors, fields


def iter_sweep(cfg: SweepConfig, summary: SweepSummary) -> Iterator[SweepChunk]:
    """Generate and check every instance of the plan, yielding one
    :class:`SweepChunk` per chunk in index order.

    ``summary`` takes a chunk's checks and its worst instance before the
    chunk is yielded, and ``runtime_seconds`` after the last.  Checks never
    abort the sweep; all violations are collected so a failing instance
    surfaces with full context.
    """
    started = time.perf_counter()
    plan = sweep_plan(cfg)
    # Instance i runs lane i // count; only a chunk's own lanes are listed.
    for chunk in _chunks(lane[3] for lane in plan for _ in range(cfg.count)):
        lanes = [plan[i // cfg.count] for i in chunk]
        # The chunk's stacks die with _record; only its columns are yielded.
        yield _record(chunk, lanes, *_measure(cfg.seed, lanes, chunk), summary)
    summary.runtime_seconds = time.perf_counter() - started


def run_sweep(cfg: SweepConfig) -> tuple[SweepSummary, list]:
    """Generate and check every instance of the plan.

    Returns the summary plus one row dict per instance (CSV order,
    :meth:`SweepChunk.rows`); see :func:`iter_sweep`, which yields the
    chunks without holding them.
    """
    summary = SweepSummary(config=cfg)
    rows = [row for chunk in iter_sweep(cfg, summary) for row in chunk.rows()]
    return summary, rows


def write_instances_csv(path, chunks: Iterable[SweepChunk]) -> None:
    """Write ``instances.csv`` from the chunks of a sweep, each as it arrives.

    A label cell is written as ``str(value)``, a float cell to 12
    significant digits and a NaN one as empty.  Each run of consecutive rows
    that share their empty cells is one ``%`` format, written at once, with a
    row template made once per pattern of empty cells.
    """
    templates = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for chunk in chunks:
            _write_chunk(fh, chunk, templates)
            del chunk  # freed before the sweep builds the next chunk


def _write_chunk(fh, chunk: SweepChunk, templates: dict) -> None:
    """Write the rows of one chunk; its Python values are freed on return,
    before the sweep builds the next chunk."""
    at = np.flatnonzero(chunk.checked)
    if not at.size:
        return
    index = (at + chunk.indices.start).tolist()
    lanes = [chunk.lanes[i] for i in at.tolist()]
    table = np.array([chunk.columns[name] for name in CSV_COLUMNS[5:]])[:, at]
    empty = np.isnan(table)
    bounds = [0, *(np.flatnonzero((empty[:, 1:] != empty[:, :-1]).any(axis=0)) + 1).tolist(), at.size]
    for start, stop in zip(bounds, bounds[1:]):
        key = empty[:, start].tobytes()
        template = templates.get(key)
        if template is None:
            # "%.0s" prints nothing for its NaN.
            template = templates[key] = ",".join(
                ["%s"] * 5 + ["%.0s" if e else "%.12g" for e in empty[:, start].tolist()]) + "\n"
        cells = zip(index[start:stop], *zip(*lanes[start:stop]), *table[:, start:stop].tolist())
        fh.write(template * (stop - start) % tuple(itertools.chain.from_iterable(cells)))
