"""The stacked sweep engine against its batch of one.

A sweep generates and measures its instances as stacks; every instance must
come out exactly as it does alone, through the instance-level functions.
"""

import itertools
import math
import tracemalloc

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


def test_rows_equal_the_python_float_tail():
    # The report formulas on Python floats, one instance at a time, as the
    # engine computed them before its columns.  Python's x ** 2 differs from
    # x * x in about one square in a thousand, so the sweep is large.
    _, rows = run_sweep(SweepConfig(seed=21, count=150))
    for row in rows:
        v, p, q, d, xi = (row[name] for name in ("v", "p", "q", "d", "xi"))
        p_sq, q_sq = min(max(p, 0.0), 1.0) ** 2, min(max(q, 0.0), 1.0) ** 2
        expected = {
            "xi": math.sqrt(p_sq + q_sq - p_sq * q_sq), "xi_minus_d": xi - d,
            "slack_o2p": (1.0 - p * p) - v * v, "slack_o2q": (1.0 - q * q) - v * v,
            "slack_o2_nuevita": (1.0 - p * p) * (1.0 - q * q) - v * v, "slack_o1": (1.0 - d * d) - v * v,
        }
        if row["slack_main"] is not None:
            expected["slack_main"] = xi - d
            expected["chi"] = d * d / (xi * xi) if xi > 1e-12 else None
        assert {name: repr(row[name]) for name in expected} == {k: repr(x) for k, x in expected.items()}


def test_report_bounds_equal_the_python_float_tail():
    for stream in range(60):
        rep = hierarchy_report(generate_instance(3, stream, 2 + stream % 7, "mixed", "s_mixed", "general_unitary"))
        assert repr(rep.v_bound_d) == repr(math.sqrt(max(0.0, 1.0 - rep.d * rep.d)))
        assert repr(rep.v_bound_xi) == repr(math.sqrt(max(0.0, 1.0 - rep.xi * rep.xi)))


def test_summary_equals_a_loop_over_its_rows():
    # Each check is one masked reduction per chunk; a loop over the rows in
    # index order, checks in their order, is the reference.
    cfg = SweepConfig(seed=5, count=12, dims=(2, 3, 4, 8))
    summary, rows = run_sweep(cfg)
    assert summary.degenerate_count == 0 and not summary.violations
    expected, worst = {}, (math.inf, None, None)

    def see(name, value, pick):
        count, extreme = expected.get(name, (0, None))
        expected[name] = (count + 1, value if extreme is None else pick(extreme, value))

    for row in rows:
        polarized, pure = row["s_class"] == "s_pure", row["wwm_class"] == "pure"
        slacks = [(name, row[f"slack_{name}"]) for name in ("o2p", "o2q", "o2_nuevita", "o1")]
        if row["n"] == 2:
            see("d_two_level", abs(max(row["p"], row["r"]) - row["d"]), max)
        if polarized and pure:
            see("pure_saturation_xi", abs(row["v"] ** 2 + row["xi"] ** 2 - 1.0), max)
            see("pure_saturation_d", abs(row["d"] - row["xi"]), max)
            see("pure_identity", row.get("pure_identity_residual"), max)
        elif polarized:
            slacks.append(("mixing_bound", row.get("mixing_bound_slack")))
        if row["slack_main"] is not None:
            slacks.append(("main", row["slack_main"]))
        if row.get("chi_closed_dev") is not None:
            see("chi_closed_form", row.get("chi_closed_dev"), max)
        for name, value in slacks:
            see(name, value, min)
            if value < worst[0]:
                worst = (value, name, row["index"])
    checks = {**summary.slack_checks, **summary.deviation_checks}
    assert {name: (checks[name].count, repr(checks[name].worst)) for name in expected} == {
        name: (count, repr(extreme)) for name, (count, extreme) in expected.items()}
    assert checks["contrast_recomposition"].count == expected["mixing_bound"][0]
    record = summary.worst_instance
    assert (record["slack"], record["check"], record["labels"]["index"]) == worst
    assert summary.xi_minus_d_min == min(row["xi_minus_d"] for row in rows)
    assert summary.xi_minus_d_candidates == sum(
        row["slack_main"] is None and row["xi_minus_d"] < -1e-9 for row in rows)


def test_violations_come_in_index_then_check_order(monkeypatch):
    for name in sweep.DEVIATION_CHECKS:
        monkeypatch.setitem(sweep.DEVIATION_CHECKS, name, -1.0)  # every deviation violates
    cfg = SweepConfig(seed=6, count=3, dims=(2, 3))
    summary, rows = run_sweep(cfg)
    expected = []
    for row in rows:
        polarized, pure = row["s_class"] == "s_pure", row["wwm_class"] == "pure"
        names = ["d_two_level"] if row["n"] == 2 else []
        if polarized:
            names += ["pure_saturation_xi", "pure_saturation_d", "pure_identity"] if pure else ["contrast_recomposition"]
        if row.get("chi_closed_dev") is not None:
            names.append("chi_closed_form")
        expected += [(row["index"], name) for name in names]
    assert [(v["labels"]["index"], v["check"]) for v in summary.violations] == expected
    first = summary.violations[0]
    assert first["threshold"] == -1.0 and first["deviation"] >= 0.0
    labels = first["labels"]
    inst = generate_instance(cfg.seed, labels["index"], labels["n"], labels["wwm_class"], labels["s_class"],
                             labels["block_class"])
    assert first["instance"] == inst.to_dict()


def test_rows_stream_chunk_by_chunk():
    cfg = SweepConfig(seed=4, count=100)
    summary = SweepSummary(config=cfg)
    rows = iter_sweep(cfg, summary)
    first = next(rows)
    assert first["index"] == 0
    assert 0 < summary.instance_count <= sweep._CHUNK_ENTRIES // 4 < 100 * len(sweep_plan(cfg))
    assert summary.runtime_seconds == 0.0
    rows.close()


def sweep_output(cfg) -> tuple:
    summary, rows = run_sweep(cfg)
    d = summary.to_dict()
    del d["runtime_seconds"]
    return [bits(row) for row in rows], repr(d)


@pytest.mark.parametrize("failing", [False, True])
def test_outputs_do_not_depend_on_the_chunk_budget(monkeypatch, failing):
    # Budgets from one instance per chunk to the shipped one; the sweep
    # spans dims 2, 3 and 8 and the tilted lane, and makes two chunks even
    # at the largest budget.  With every deviation check failing, the
    # violations cross chunk boundaries, so their order is pinned too.
    if failing:
        for name in sweep.DEVIATION_CHECKS:
            monkeypatch.setitem(sweep.DEVIATION_CHECKS, name, -1.0)
    cfg = SweepConfig(seed=9, count=8, dims=(2, 3, 8))
    assert any(lane[0] == sweep.STRINGENCY_CLASS for lane in sweep_plan(cfg))
    outputs = {}
    for entries in (4, 64, 1024, 4096):
        monkeypatch.setattr(sweep, "_CHUNK_ENTRIES", entries)
        outputs[entries] = sweep_output(cfg)
    assert len(list(sweep._chunks([lane[3] for lane in sweep_plan(cfg) for _ in range(cfg.count)]))) == 2
    rows, summary = outputs[4]
    assert len(rows) == cfg.count * len(sweep_plan(cfg))
    assert ("'violation_count': 0," in summary) != failing
    for entries, output in outputs.items():
        assert output == (rows, summary), entries


def test_chunk_working_set_is_bounded():
    # The traced peak of a --dims 8 sweep measured 1.41 MiB at 4096-entry
    # chunks (numpy 2.4, Python 3.11); without freeing each chunk's draws,
    # stacks and copies it measured 2.38 MiB.
    cfg = SweepConfig(seed=0, count=100, dims=(8,))
    for _ in iter_sweep(SweepConfig(seed=1, count=2, dims=(2, 8)), SweepSummary(config=cfg)):
        pass  # the first sweep of a process also imports numpy.linalg's lazy parts
    summary = SweepSummary(config=cfg)
    tracemalloc.start()
    try:
        rows = sum(1 for _ in iter_sweep(cfg, summary))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 800
    assert peak < 1.75 * 2 ** 20
    # What the finished sweep keeps: its summary, whose worst instance holds
    # copies of its own fields rather than its group's stacks (320 KiB).
    assert kept < 64 * 2 ** 10


@pytest.mark.parametrize("cfg, solves", [
    (SweepConfig(seed=0, count=4), 12),
    (SweepConfig(seed=0, count=10, dims=(8,)), 8),  # two chunks, one group each
])
def test_each_group_solves_each_eigenproblem_once(monkeypatch, cfg, solves):
    # Per dimension group of a chunk: the rho_d0 density check, rho+ - rho-
    # (Q), the Helstrom operator (D) and at most one decomposition of rho_d0,
    # which only polarized instances need.
    counts = {"solves": 0, "groups": 0, "decomposed": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if fn is eigh:
                counts["decomposed"] += math.prod(np.shape(args[0])[:-2])
            return fn(*args, **kwargs)
        return wrapper

    eigh = np.linalg.eigh
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted("solves", getattr(np.linalg, name)))
    monkeypatch.setattr(sweep, "branch_kernel", counted("groups", sweep.branch_kernel))
    summary, _ = run_sweep(cfg)
    assert counts["solves"] <= 4 * counts["groups"]
    assert counts["solves"] <= solves
    polarized = sum(cfg.count for lane in sweep_plan(cfg) if lane[2] == "s_pure")
    assert 0 < counts["decomposed"] <= polarized < summary.instance_count


def test_generated_instances_are_checked_for_unitarity_once(monkeypatch):
    # validate_instances checks each group's joint operators; the block
    # formulas that build them from Haar unitaries check nothing.
    checked = []
    is_unitary = linalg.is_unitary

    def counted(m, *args, **kwargs):
        checked.append(math.prod(np.shape(m)[:-2]))
        return is_unitary(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_unitary", counted)
    summary, _ = run_sweep(SweepConfig(seed=0, count=4))
    assert len(checked) == 3  # one chunk, three dimension groups
    assert sum(checked) == summary.instance_count + summary.degenerate_count == 104


def test_numpy_square_and_modulus_round_as_python_does():
    # The measure columns square with float_power and take moduli with hypot
    # because these round as Python's x ** 2 and complex abs do; a platform
    # where they do not fails here instead of silently changing output bits.
    gen = linalg.rng(20240, 7)
    x = np.concatenate([gen.random(50_000), gen.standard_normal(50_000) * 10.0 ** gen.integers(-6, 6, 50_000),
                        [0.0, 1.0, 5e-324, 1e-310]])
    assert np.float_power(x, 2.0).tobytes() == np.array([v ** 2 for v in x.tolist()]).tobytes()
    z = x[:-4] + 1j * gen.standard_normal(x.size - 4) * 10.0 ** gen.integers(-6, 6, x.size - 4)
    z = np.concatenate([z, [0j, 1 + 0j, 1j, 5e-324 + 1e-310j]])
    assert np.hypot(z.real, z.imag).tobytes() == np.array([abs(v) for v in z.tolist()]).tobytes()


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

    def failing_on_target(k, sp):
        if np.any(k.phi == target_phi):
            raise IdentityError("injected failure")
        return pure_identities(k, sp)

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
