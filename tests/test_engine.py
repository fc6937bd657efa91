"""The stacked sweep engine against its batch of one.

A sweep generates and measures its instances as stacks; every instance must
come out exactly as it does alone, through the instance-level functions.
"""

import itertools
import math

import numpy as np
import pytest

from duality import linalg, sweep
from duality.errors import IdentityError
from duality.interferometer import WwmBlocks, from_global_unitary, from_tilted_pair, from_unitary_pair
from duality.measures import (
    chi_closed_form,
    hierarchy_report,
    mixed_state_bound_check,
    pure_state_identity_check,
)
from duality.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    SweepSummary,
    generate_instance,
    iter_sweep,
    run_sweep,
    sweep_plan,
)
from duality.tolerances import TIE_ATOL


def row_alone(seed: int, row: dict) -> dict:
    """The CSV row of one instance, built from the instance-level functions."""
    inst = generate_instance(seed, row["index"], row["n"], row["wwm_class"],
                             row["s_class"], row["block_class"])
    rep = hierarchy_report(inst)
    out = {name: row[name] for name in CSV_COLUMNS[:5]}
    out.update(s=inst.s, phi=inst.phi, v=rep.v, p=rep.p, q=rep.q, d=rep.d, xi=rep.xi, r=rep.r,
               chi=rep.chi, xi_minus_d=rep.xi - rep.d, slack_main=rep.slacks.get("main"))
    for name in ("o2p", "o2q", "o2_nuevita", "o1"):
        out[f"slack_{name}"] = rep.slacks[name]
    if inst.kernel.polarized and row["wwm_class"] == "pure":
        out["pure_identity_residual"] = pure_state_identity_check(inst)
    elif inst.kernel.polarized:
        out["mixing_bound_slack"] = mixed_state_bound_check(inst).slack
    if rep.chi is not None:
        values = linalg.hermitian_eigen(inst.rho_d0).values
        closed = (rep.p ** 2 / rep.xi ** 2 if rep.p > rep.r + TIE_ATOL else
                  chi_closed_form(float(values[0]), float(max(values[1], 0.0)), rep.p, rep.xi))
        out["chi_closed_dev"] = abs(rep.chi - closed)
    return out


def bits(row: dict) -> dict:
    return {name: repr(row.get(name)) for name in CSV_COLUMNS}


@pytest.mark.parametrize("seed", [11, 12])
def test_every_row_equals_its_batch_of_one(seed):
    cfg = SweepConfig(seed=seed, count=3, dims=tuple(range(2, 9)))
    summary, rows = run_sweep(cfg)
    assert summary.instance_count == len(rows) == 3 * len(sweep_plan(cfg))
    for row in rows:
        assert bits(row) == bits(row_alone(seed, row)), row["index"]


def test_rows_stream_chunk_by_chunk():
    cfg = SweepConfig(seed=4, count=100)
    summary = SweepSummary(config=cfg)
    rows = iter_sweep(cfg, summary)
    first = next(rows)
    assert first["index"] == 0
    assert 0 < summary.instance_count <= sweep._CHUNK_ENTRIES // 4 < 100 * len(sweep_plan(cfg))
    assert summary.runtime_seconds == 0.0
    rows.close()


def plan_index(cfg, lane_filter):
    """Index of the first instance of the first lane that passes ``lane_filter``."""
    lanes = [lane for lane in sweep_plan(cfg) for _ in range(cfg.count)]
    return next(i for i, lane in enumerate(lanes) if lane_filter(*lane))


def test_degenerate_instance_is_counted_and_the_rest_unchanged(monkeypatch):
    cfg = SweepConfig(seed=2, count=3, dims=(2, 3))
    _, clean = run_sweep(cfg)
    target = plan_index(cfg, lambda block, wwm, s_class, dim: dim == 2)
    draw = sweep._draw

    def draw_with_a_dead_way(seed, jobs, dim):
        s, blocks, rho, phi = draw(seed, jobs, dim)
        streams = [job[0] for job in jobs]
        if target in streams:
            # theta = 0 with s = 1 sends no amplitude down the minus way.
            pos = streams.index(target)
            dead = from_tilted_pair(0.0, np.eye(2), np.eye(2))
            stacks = [np.array(m) for m in (blocks.vpp, blocks.vpm, blocks.vmp, blocks.vmm)]
            for stack, m in zip(stacks, (dead.vpp, dead.vpm, dead.vmp, dead.vmm)):
                stack[pos] = m
            s = s.copy()
            s[pos] = 1.0
            blocks = WwmBlocks(*stacks)
        return s, blocks, rho, phi

    monkeypatch.setattr(sweep, "_draw", draw_with_a_dead_way)
    summary, rows = run_sweep(cfg)
    assert summary.degenerate_count == 1
    assert summary.slack_checks["o2p"].count == summary.instance_count == len(clean) - 1
    assert [bits(r) for r in rows] == [bits(r) for r in clean if r["index"] != target]


def test_internal_identity_failure_is_recorded_with_its_instance(monkeypatch):
    cfg = SweepConfig(seed=3, count=3, dims=(2,))
    clean_summary, clean = run_sweep(cfg)
    target = plan_index(cfg, lambda block, wwm, s_class, dim: wwm == "pure" and s_class == "s_pure")
    target_phi = next(r["phi"] for r in clean if r["index"] == target)
    pure_identities = sweep.pure_identities

    def failing_on_target(k):
        if np.any(k.phi == target_phi):
            raise IdentityError("injected failure")
        return pure_identities(k)

    monkeypatch.setattr(sweep, "pure_identities", failing_on_target)
    summary, rows = run_sweep(cfg)
    assert [v["check"] for v in summary.violations] == ["internal_identity"]
    assert summary.violations[0]["labels"]["index"] == target
    assert summary.violations[0]["instance"]["phi"] == target_phi
    assert [bits(r) for r in rows] == [bits(r) for r in clean if r["index"] != target]
    # As for one instance at a time, the checks that precede the identity
    # check count the failing instance, the identity check does not.
    assert summary.slack_checks["o2p"].count == len(clean)
    assert summary.deviation_checks["pure_saturation_d"].count == (
        clean_summary.deviation_checks["pure_saturation_d"].count)
    assert summary.deviation_checks["pure_identity"].count == (
        clean_summary.deviation_checks["pure_identity"].count - 1)


def draw_one_call_per_quantity(seed: int, jobs: list, dim: int) -> tuple:
    """Reference for ``_draw``: a new Philox per instance, one generator call
    per quantity, and every instance built alone."""
    s, phi, blocks, rho = [], [], [], []
    for stream, block_class, wwm_class, s_class in jobs:
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        if s_class == "s_pure":
            s.append(1.0 if gen.uniform() < 0.5 else -1.0)
        else:
            s.append(float(gen.uniform(-1.0, 1.0)))
        phi.append(float(gen.uniform(0.0, 2.0 * math.pi)))
        if block_class == "general_unitary":
            blocks.append(from_global_unitary(linalg.haar_unitary_from(gen, 2 * dim)))
        else:
            theta = float(gen.uniform(0.05, math.pi / 4.0)) if block_class == "tilted_pair" else None
            u = linalg.haar_from_normals(gen.standard_normal((2, 2, dim, dim)))
            blocks.append(from_unitary_pair(u[0], u[1]) if theta is None
                          else from_tilted_pair(theta, u[0], u[1]))
        rank = 1 if wwm_class == "pure" else int(gen.integers(2, dim + 1))
        rho.append(linalg.density_from(gen, dim, rank))
    stacks = WwmBlocks(*(np.array([getattr(b, name) for b in blocks])
                         for name in ("vpp", "vpm", "vmp", "vmm")))
    return np.array(s), stacks, np.array(rho), np.array(phi)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("dim", range(2, 9))
def test_draw_equals_one_call_per_quantity(seed, dim):
    classes = itertools.product(("unitary_pair", "general_unitary", "tilted_pair"),
                                sweep.WWM_CLASSES, sweep.S_CLASSES)
    # Three instances per class, interleaved, so that every group mixes
    # block classes and marker ranks.
    jobs = [(7 * stream + dim, *job) for stream, job in enumerate(list(classes) * 3)]
    (s, blocks, rho, phi), (s1, blocks1, rho1, phi1) = (
        sweep._draw(seed, jobs, dim), draw_one_call_per_quantity(seed, jobs, dim))
    for name, a, b in [("s", s, s1), ("rho_d0", rho, rho1), ("phi", phi, phi1)] + [
            (name, getattr(blocks, name), getattr(blocks1, name)) for name in ("vpp", "vpm", "vmp", "vmm")]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
