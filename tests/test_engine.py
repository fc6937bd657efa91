"""The stacked sweep engine against its batch of one.

A sweep generates and measures its instances as stacks; every instance must
come out exactly as it does alone, through the instance-level functions.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duality import interferometer, linalg, measures, sweep
from duality.errors import DegenerateBranchError, IdentityError, ValidationError
from duality.interferometer import (InterferometerInstance, WwmBlocks, from_global_unitary, from_tilted_pair,
                                   from_unitary_pair, validate_instances)
from duality.measures import (
    _report,
    branch_spectra,
    evaluate,
    hierarchy_report,
    hierarchy_reports,
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
from duality.tolerances import PURITY_ATOL, TIE_ATOL, VALIDATION_ATOL


def row_alone(seed: int, row: dict) -> dict:
    """The CSV row of one instance, built from the instance-level functions."""
    inst = generate_instance(seed, row["index"], row["n"], row["wwm_class"],
                             row["s_class"], row["block_class"])
    rep = hierarchy_report(inst)
    out = {name: row[name] for name in CSV_COLUMNS[:5]}
    out.update(s=inst.s, phi=inst.phi, v=rep["v"], p=rep["p"], q=rep["q"], d=rep["d"], xi=rep["xi"], r=rep["r"],
               chi=rep["chi"], xi_minus_d=rep["xi"] - rep["d"], slack_main=rep["slacks"].get("main"))
    for name in ("o2p", "o2q", "o2_nuevita", "o1"):
        out[f"slack_{name}"] = rep["slacks"][name]
    if inst.kernel.polarized and row["wwm_class"] == "pure":
        out["pure_identity_residual"] = pure_state_identity_check(inst)
    elif inst.kernel.polarized:
        out["mixing_bound_slack"] = mixed_state_bound_check(inst).slack
    if rep["chi"] is not None:
        values = linalg.hermitian_eigen(inst.rho_d0).values
        d1, d2 = float(values[0]), max(float(values[1]), 0.0)
        closed = (rep["p"] ** 2 / rep["xi"] ** 2 if rep["p"] > rep["r"] + TIE_ATOL else
                  1.0 - 4.0 * d1 * d2 * rep["p"] * rep["p"] / (rep["xi"] * rep["xi"]))
        out["chi_closed_dev"] = abs(rep["chi"] - closed)
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
        assert repr(rep["v_bound_d"]) == repr(math.sqrt(max(0.0, 1.0 - rep["d"] * rep["d"])))
        assert repr(rep["v_bound_xi"]) == repr(math.sqrt(max(0.0, 1.0 - rep["xi"] * rep["xi"])))


def test_summary_equals_a_loop_over_its_rows():
    # The checks run as one stacked pass per chunk; a loop over the rows in
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


def fail_every_deviation_check(monkeypatch):
    monkeypatch.setattr(sweep, "CHECKS", tuple(
        check._replace(threshold=-1.0) if check.kind == "deviation" else check for check in sweep.CHECKS))


def test_violations_come_in_index_then_check_order(monkeypatch):
    fail_every_deviation_check(monkeypatch)
    # Four chunks, each of which holds instances of all three dimensions.
    monkeypatch.setattr(sweep, "_CHUNK_ENTRIES", 512)
    cfg = SweepConfig(seed=6, count=3, dims=(2, 3, 8))
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
    # Each record's instance is its own, read from its chunk's stacks: the replayed instance, bit for bit.
    for record in (*summary.violations, summary.worst_instance):
        labels = record["labels"]
        inst = generate_instance(cfg.seed, labels["index"], labels["n"], labels["wwm_class"], labels["s_class"],
                                 labels["block_class"])
        assert repr(record["instance"]) == repr(inst.to_dict())


# --- _record on synthetic columns: cases a seeded sweep never produces ---------------

# The column each gated check reads.
RECORD_SLACKS = {"o2p": "slack_o2p", "o2q": "slack_o2q", "o2_nuevita": "slack_o2_nuevita", "o1": "slack_o1",
                 "main": "slack_main", "mixing_bound": "mixing_bound_slack"}
RECORD_DEVIATIONS = {"pure_identity": "pure_identity_residual", "chi_closed_form": "chi_closed_dev",
                     "d_two_level": "d_two_level", "contrast_recomposition": "contrast_recomposition",
                     "pure_saturation_xi": "pure_saturation_xi", "pure_saturation_d": "pure_saturation_d"}
RECORD_LANE = ("unitary_pair", "pure", "s_pure", 2)
RECORD_FIELDS = (1.0, 0.0, np.eye(2) / 2, *(np.eye(2, dtype=complex),) * 4)


def recorded(size: int, cells: dict, errors=None, summary=None, start=0):
    """``sweep._record`` of a chunk of ``size`` instances at ``start`` whose
    slacks are 0.5 and deviations 0.0 but for ``cells``, {(check, position): value}."""
    cols = {column: np.full(size, 0.5) for column in RECORD_SLACKS.values()}
    cols.update((column, np.zeros(size)) for column in RECORD_DEVIATIONS.values())
    for (check, i), value in cells.items():
        cols[{**RECORD_SLACKS, **RECORD_DEVIATIONS}[check]][i] = value
    cols["xi_minus_d"] = np.full(size, 0.25)
    summary = summary or SweepSummary(config=SweepConfig(seed=0, count=1))
    chunk = sweep._record(range(start, start + size), [RECORD_LANE] * size, cols, errors or {},
                          lambda i: RECORD_FIELDS, summary)
    return summary, chunk


def stats(summary) -> dict:
    checks = {**summary.slack_checks, **summary.deviation_checks}
    return {name: (c.count, c.violations, c.worst) for name, c in checks.items()}


def test_record_keeps_the_first_smallest_slack():
    # Instance 1 ties mixing_bound (run before main) with main; instance 3
    # ties it with o2p, the first check run.
    summary, _ = recorded(4, {("mixing_bound", 1): 0.05, ("main", 1): 0.05, ("o2p", 3): 0.05})
    worst = summary.worst_instance
    assert (worst["slack"], worst["check"], worst["labels"]) == (
        0.05, "mixing_bound", dict(zip(("index", "block_class", "wwm_class", "s_class", "n"), (1, *RECORD_LANE))))
    assert worst["instance"] == interferometer.instance_to_dict(*RECORD_FIELDS)
    # A later chunk that only ties keeps the earlier instance.
    recorded(2, {("o2p", 0): 0.05}, summary=summary, start=4)
    assert summary.worst_instance["labels"]["index"] == 1
    recorded(2, {("o1", 1): 0.04}, summary=summary, start=6)
    assert (summary.worst_instance["check"], summary.worst_instance["labels"]["index"]) == ("o1", 7)
    assert not summary.violations and summary.instance_count == 8


def test_record_gates_at_the_thresholds():
    above, below = np.nextafter(1e-9, 1.0), np.nextafter(-1e-9, -1.0)
    summary, chunk = recorded(3, {("d_two_level", 0): 1e-10, ("o1", 0): -1e-9,
                                  ("pure_identity", 2): above, ("o2q", 2): below})
    got = stats(summary)
    assert got["d_two_level"] == (3, 0, 1e-10) and got["o1"] == (3, 0, -1e-9)
    assert got["pure_identity"] == (3, 1, above) and got["o2q"] == (3, 1, below)
    assert [(v["labels"]["index"], v["check"]) for v in summary.violations] == [(2, "o2q"), (2, "pure_identity")]
    slack, deviation = summary.violations
    assert list(slack) == ["check", "slack", "threshold", "labels", "instance"]
    assert (slack["slack"], slack["threshold"]) == (below, -1e-9)
    assert list(deviation) == ["check", "deviation", "threshold", "labels", "instance"]
    assert (deviation["deviation"], deviation["threshold"]) == (above, 1e-9)
    # A violation is a check's failure, not an instance's: every instance gets its row.
    assert chunk.checked.all() and summary.instance_count == 3


def test_record_neither_counts_nor_gates_nan_cells():
    nan = math.nan
    summary, _ = recorded(3, {("main", 0): nan, ("main", 1): nan, ("main", 2): 0.3,
                              ("chi_closed_form", 0): nan, ("chi_closed_form", 1): nan,
                              ("chi_closed_form", 2): nan, ("d_two_level", 1): nan})
    got = stats(summary)
    assert got["main"] == (1, 0, 0.3) and got["chi_closed_form"] == (0, 0, None)
    assert got["d_two_level"] == (2, 0, 0.0) and got["o2p"] == (3, 0, 0.5)
    assert not summary.violations
    # Xi - D of an instance outside the main check is a candidate, not a violation.
    assert summary.xi_minus_d_candidates == 0 and summary.xi_minus_d_min == 0.25


def test_record_skips_checks_after_an_identity_error():
    # Instance 2 fails an internal identity after its first seven checks ran;
    # instance 3 is degenerate before any, so evaluate leaves it NaN in every
    # column; both miss every later check.
    errors = {2: IdentityError("half-difference spectrum is not symmetric"), 3: DegenerateBranchError("no amplitude")}
    unmeasured = {(check, 3): math.nan for check in {**RECORD_SLACKS, **RECORD_DEVIATIONS}}
    summary, chunk = recorded(4, {("o1", 2): -1.0, ("pure_saturation_d", 2): 1.0, ("pure_identity", 2): 1.0,
                                  ("main", 2): -1.0, ("mixing_bound", 2): -2.0, **unmeasured}, errors=errors)
    assert [(v["labels"]["index"], v["check"]) for v in summary.violations] == [
        (2, "o1"), (2, "pure_saturation_d"), (2, "internal_identity")]
    failure = summary.violations[-1]
    assert list(failure) == ["check", "error", "labels", "instance"]
    assert failure["error"] == "half-difference spectrum is not symmetric"
    got = stats(summary)
    assert got["o1"] == (3, 1, -1.0) and got["o2p"] == (3, 0, 0.5) and got["pure_saturation_d"] == (3, 1, 1.0)
    assert got["pure_identity"] == got["chi_closed_form"] == (2, 0, 0.0)
    assert got["main"] == got["mixing_bound"] == (2, 0, 0.5)
    assert chunk.checked.tolist() == [True, True, False, False]
    assert (summary.instance_count, summary.degenerate_count) == (2, 1)
    worst = summary.worst_instance
    assert (worst["slack"], worst["check"], worst["labels"]["index"]) == (-1.0, "o1", 2)


def test_rows_stream_chunk_by_chunk():
    cfg = SweepConfig(seed=4, count=100)
    summary = SweepSummary(config=cfg)
    chunks = iter_sweep(cfg, summary)
    first = next(chunks)
    assert first.rows()[0]["index"] == first.indices.start == 0
    assert 0 < summary.instance_count <= sweep._CHUNK_ENTRIES // 4 < 100 * len(sweep_plan(cfg))
    assert summary.instance_count == np.count_nonzero(first.checked) == len(first.rows())
    assert summary.runtime_seconds == 0.0
    chunks.close()


def sweep_output(cfg) -> tuple:
    summary, rows = run_sweep(cfg)
    d = summary.to_dict()
    del d["runtime_seconds"]
    return [bits(row) for row in rows], repr(d)


@pytest.mark.parametrize("failing", [False, True])
def test_outputs_do_not_depend_on_the_chunk_budget(monkeypatch, failing):
    # Budgets from one instance per chunk to the shipped one, the largest;
    # the sweep spans dims 2, 3 and 8 and the tilted lane, and its 5616
    # entries make two chunks even at the shipped budget.  With every
    # deviation check failing, the violations cross chunk boundaries, so
    # their order is pinned too.
    if failing:
        fail_every_deviation_check(monkeypatch)
    cfg = SweepConfig(seed=9, count=9, dims=(2, 3, 8))
    assert any(lane[0] == sweep.STRINGENCY_CLASS for lane in sweep_plan(cfg))
    outputs = {}
    for entries in (4, 64, 1024, 4096, sweep._CHUNK_ENTRIES):
        monkeypatch.setattr(sweep, "_CHUNK_ENTRIES", entries)
        outputs[entries] = sweep_output(cfg)
    assert len(list(sweep._chunks([lane[3] for lane in sweep_plan(cfg) for _ in range(cfg.count)]))) == 2
    rows, summary = outputs[4]
    assert len(rows) == cfg.count * len(sweep_plan(cfg))
    assert ("'violation_count': 0," in summary) != failing
    for entries, output in outputs.items():
        assert output == (rows, summary), entries


def traced_sweep(cfg: SweepConfig) -> tuple:
    """The rows, the memory kept at the end and the traced peak of a sweep, in bytes."""
    for _ in iter_sweep(SweepConfig(seed=1, count=2, dims=(2, 8)), SweepSummary(config=cfg)):
        pass  # the first sweep of a process also imports numpy.linalg's lazy parts
    summary = SweepSummary(config=cfg)
    tracemalloc.start()
    try:
        rows = sum(int(np.count_nonzero(chunk.checked)) for chunk in iter_sweep(cfg, summary))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rows, kept, peak


def test_chunk_working_set_is_bounded():
    # The traced peak of a --dims 8 sweep measured 1.47 MiB at 5120-entry
    # chunks (numpy 2.4, Python 3.11), held by the measurement chain beside
    # the chunk's stacks.  Before the Haar draw freed its normals ahead of
    # the QR, the draw held it: 1.39 MiB at 4096 entries, 1.72 MiB at 5120
    # and 2.06 MiB at 6144 (1.78 MiB after).  Without freeing each chunk's
    # draws, stacks and copies it measured 2.38 MiB at 4096 entries.
    rows, kept, peak = traced_sweep(SweepConfig(seed=0, count=100, dims=(8,)))
    assert rows == 800
    assert peak < 1.75 * 2 ** 20, f"traced peak {peak / 2 ** 20:.3f} MiB"
    # What the finished sweep keeps: its summary, whose worst instance holds
    # copies of its own fields (5 KiB), not their JSON (40 KiB at n = 8) or
    # its group's stacks (320 KiB).
    assert kept < 64 * 2 ** 10, f"kept {kept / 2 ** 10:.1f} KiB"


@pytest.mark.parametrize("cfg, rows", [
    (SweepConfig(seed=0, count=100), 2600),
    (SweepConfig(seed=0, count=100, dims=tuple(range(2, 9))), 5800),
], ids=["default", "dims-2-to-8"])
def test_real_traffic_working_set_is_bounded(cfg, rows):
    # The default sweep traced 1.19 MiB at 5120-entry chunks (1.03 MiB at
    # 4096), --dims 2,...,8 traced 1.45 MiB (1.36 MiB), numpy 2.4, Python 3.11.
    got, kept, peak = traced_sweep(cfg)
    assert got == rows
    assert peak < 1.75 * 2 ** 20, f"traced peak {peak / 2 ** 20:.3f} MiB"
    assert kept < 64 * 2 ** 10, f"kept {kept / 2 ** 10:.1f} KiB"


def test_haar_draw_frees_its_normals_before_the_qr():
    # 80 general_unitary instances at n = 8, whose (80, 16, 16) Haar QR holds
    # the draw's peak: 1.37 MiB traced (numpy 2.4, Python 3.11), against
    # 1.68 MiB while their stacked normals stayed alive through the QR.
    cfg = SweepConfig(seed=0, count=20, dims=(8,), block_classes=("general_unitary",))
    plan = sweep_plan(cfg)
    jobs = [(i, *plan[i // cfg.count][:3]) for i in range(cfg.count * len(plan))]
    sweep._draw(cfg.seed, jobs, 8)  # numpy.linalg's lazy parts load on first use
    tracemalloc.start()
    try:
        s, *_ = sweep._draw(cfg.seed, jobs, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.shape == (80,)
    assert peak < 1.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.3f} MiB"


def test_validation_working_set_is_bounded():
    # 64 instances at n = 8, a full chunk at 4096 entries.  Validating them
    # through the assembled (64, 16, 16) joint operators and a full eigvalsh
    # traced 900 KiB (numpy 2.4, Python 3.11); from the n x n block
    # identities and one Cholesky factorization, 323 KiB; with the identities
    # as three Gram products of 2n x n block stacks, 579 KiB.  The 80 of a
    # full chunk at 5120 entries trace 723 KiB, inside the chunk's bound of
    # test_chunk_working_set_is_bounded.
    cfg = SweepConfig(seed=3, count=8, dims=(8,))
    plan = sweep_plan(cfg)
    jobs = [(i, *plan[i // cfg.count][:3]) for i in range(cfg.count * len(plan))]
    s, blocks, rho, phi = sweep._draw(cfg.seed, jobs, 8)
    assert s.shape == (64,)
    validate_instances(s, blocks, rho, phi)  # numpy.linalg's lazy parts load on first use
    tracemalloc.start()
    try:
        validate_instances(s, blocks, rho, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 640 * 2 ** 10, f"traced peak {peak / 2 ** 10:.1f} KiB"


def test_first_row_does_not_wait_for_the_whole_plan():
    # Only the first chunk's lanes are listed before its rows: listing all
    # 2.6 million instances of this plan first traced 43 MiB; the first
    # chunk (1280 instances at n = 2) traces 1.7 MiB.
    cfg = SweepConfig(seed=0, count=100_000)
    for _ in iter_sweep(SweepConfig(seed=1, count=2, dims=(2, 8)), SweepSummary(config=cfg)):
        pass  # the first sweep of a process also imports numpy.linalg's lazy parts
    chunks = iter_sweep(cfg, SweepSummary(config=cfg))
    tracemalloc.start()
    try:
        first = next(chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        chunks.close()
    assert first.indices == range(sweep._CHUNK_ENTRIES // 4) and first.checked[0]
    assert peak < 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.3f} MiB"


@pytest.mark.parametrize("cfg, solves", [
    (SweepConfig(seed=0, count=4), 12),
    (SweepConfig(seed=0, count=10, dims=(8,)), 3),  # one chunk, one group
])
def test_each_group_solves_each_eigenproblem_once(monkeypatch, cfg, solves):
    # Per dimension group of a chunk: rho+ - rho- (Q), the Helstrom operator
    # (D) and at most one decomposition of rho_d0, which only polarized
    # instances need.  The rho_d0 density check is a Cholesky factorization,
    # which solves no eigenproblem unless it fails.
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
    monkeypatch.setattr(measures, "branch_kernel", counted("groups", measures.branch_kernel))
    summary, _ = run_sweep(cfg)
    assert counts["solves"] <= 3 * counts["groups"]
    assert counts["solves"] <= solves
    polarized = sum(cfg.count for lane in sweep_plan(cfg) if lane[2] == "s_pure")
    assert 0 < counts["decomposed"] <= polarized < summary.instance_count


def test_generated_instances_are_checked_for_unitarity_once(monkeypatch):
    # validate_instances checks each group's blocks once, from their block
    # identities; the block formulas that build them from Haar unitaries
    # check nothing, and no joint operator goes through linalg.is_unitary.
    checked, joint = [], []
    validate_unitarity = interferometer.validate_unitarity

    def counted(blocks):
        checked.append(math.prod(blocks.vpp.shape[:-2]))
        return validate_unitarity(blocks)

    monkeypatch.setattr(interferometer, "validate_unitarity", counted)
    monkeypatch.setattr(linalg, "is_unitary", lambda m: joint.append(m))
    summary, _ = run_sweep(SweepConfig(seed=0, count=4))
    assert len(checked) == 3  # one chunk, three dimension groups
    assert sum(checked) == summary.instance_count + summary.degenerate_count == 104
    assert not joint


def generated_groups(cfg: SweepConfig):
    """Each marker dimension's instances of a sweep plan, drawn as the sweep
    draws them: ``(s, blocks, rho_d0, phi)`` stacks, one per dimension."""
    plan = sweep_plan(cfg)
    by_dim = {}
    for i in range(cfg.count * len(plan)):
        lane = plan[i // cfg.count]
        by_dim.setdefault(lane[3], []).append((i, *lane[:3]))
    for dim, jobs in by_dim.items():
        yield sweep._draw(cfg.seed, jobs, dim)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count, dims", [(100, (2, 3, 4)), (100, (8,)), (2, tuple(range(2, 9)))],
                         ids=["default", "dims-8", "analyze"])
def test_generated_instances_pass_validation_as_before(seed, count, dims):
    # The shipped default sweep, --dims 8 and the benchmark's analyze files:
    # every marker passes the Cholesky certificate as it passes the
    # eigenvalue rule, and every instance's blocks pass their block
    # identities as its assembled joint operator passes linalg.is_unitary.
    for s, blocks, rho, phi in generated_groups(SweepConfig(seed=seed, count=count, dims=dims)):
        assert (np.linalg.eigvalsh(rho).min(axis=-1) >= -VALIDATION_ATOL).all()
        np.linalg.cholesky(rho + VALIDATION_ATOL * np.eye(rho.shape[-1]))
        joint = linalg.is_unitary(interferometer.assemble_global_unitary(blocks))
        assert joint.all() and np.array_equal(interferometer.validate_unitarity(blocks), joint)
        assert validate_instances(s, blocks, rho, phi) is not None


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


def inject_identity_failure(monkeypatch, phi: float) -> None:
    """Make ``measures.pure_identities`` fail the members of its batch whose
    phase is ``phi`` with an IdentityError, through ``linalg.require_members``
    before its own tests, as a real test fails them."""
    pure_identities = measures.pure_identities

    def failing_at_phi(k, sp, failed=None):
        linalg.require_members(k.phi != phi, IdentityError, "injected failure", failed=failed)
        return pure_identities(k, sp, failed)

    monkeypatch.setattr(measures, "pure_identities", failing_at_phi)


def chain_calls(monkeypatch) -> dict:
    """The batch size of every later call of ``measures.branch_spectra``,
    ``pure_identities`` and ``mixing_bounds``, by name, in call order."""
    calls = {"branch_spectra": [], "pure_identities": [], "mixing_bounds": []}

    def counted(name, function):
        def call(k, *args):
            calls[name].append(len(k.s))
            return function(k, *args)
        return call

    for name in calls:
        monkeypatch.setattr(measures, name, counted(name, getattr(measures, name)))
    return calls


def test_internal_identity_failure_is_recorded_with_its_instance(monkeypatch):
    cfg = SweepConfig(seed=3, count=3, dims=(2,))
    clean_summary, clean = run_sweep(cfg)
    target = plan_index(cfg, lambda block, wwm, s_class, dim: wwm == "pure" and s_class == "s_pure")
    target_phi = next(r["phi"] for r in clean if r["index"] == target)
    inject_identity_failure(monkeypatch, target_phi)
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


def test_the_contrast_recomposition_row_gates_a_recomposition_that_fails(monkeypatch):
    # A member whose marker eigenvalues enter mixing_bounds doubled recomposes
    # twice its contrast factor: its own CHECKS row records the deviation.
    cfg = SweepConfig(seed=3, count=3, dims=(2,))
    _, clean = run_sweep(cfg)
    target = plan_index(cfg, lambda block, wwm, s_class, dim: wwm == "mixed" and s_class == "s_pure")
    row = next(r for r in clean if r["index"] == target)
    target_phi = row["phi"]
    mixing_bounds = measures.mixing_bounds

    def doubled_at_phi(k, sp, failed=None):
        doubled = np.where((k.phi == target_phi)[..., None], 2.0 * sp.marker_values, sp.marker_values)
        return mixing_bounds(k, sp._replace(marker_values=doubled), failed)

    monkeypatch.setattr(measures, "mixing_bounds", doubled_at_phi)
    summary, rows = run_sweep(cfg)
    assert [(v["check"], v["labels"]["index"]) for v in summary.violations] == [("contrast_recomposition", target)]
    assert summary.violations[0]["deviation"] > 1e-10 and summary.violations[0]["threshold"] == 1e-10
    assert summary.deviation_checks["contrast_recomposition"].violations == 1 and summary.degenerate_count == 0
    # The recomposition feeds no column of the CSV.
    assert [bits(r) for r in rows] == [bits(r) for r in clean]
    inst = generate_instance(cfg.seed, target, 2, "mixed", "s_pure", row["block_class"])
    with pytest.raises(IdentityError, match="^spectral recomposition of the contrast factor failed: "):
        mixed_state_bound_check(inst)


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


def every_lane_class(dim: int) -> list:
    """``_draw`` jobs at marker dimension ``dim``: three instances of every
    (block, marker, s) class, the tilted lane's included, interleaved so that
    a group mixes block classes and marker ranks."""
    classes = itertools.product(("unitary_pair", "general_unitary", "tilted_pair"),
                                sweep.WWM_CLASSES, sweep.S_CLASSES)
    return [(7 * stream + dim, *job) for stream, job in enumerate(list(classes) * 3)]


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("dim", range(2, 9))
def test_draw_equals_one_call_per_quantity(seed, dim):
    jobs = every_lane_class(dim)
    (s, blocks, rho, phi), (s1, blocks1, rho1, phi1) = (
        sweep._draw(seed, jobs, dim), draw_one_call_per_quantity(seed, jobs, dim))
    for name, a, b in [("s", s, s1), ("rho_d0", rho, rho1), ("phi", phi, phi1)] + [
            (name, getattr(blocks, name), getattr(blocks1, name)) for name in ("vpp", "vpm", "vmp", "vmm")]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def drawn(seed: int, jobs: list, dim: int) -> tuple:
    """The fields of generated instances, as ``evaluate`` takes them."""
    return sweep._draw(seed, jobs, dim)


def stack_take(fields: tuple, index) -> tuple:
    """The ``evaluate`` arguments of the instances at ``index`` of a stack."""
    s, blocks, rho, phi = fields
    return (s[index], WwmBlocks(*(getattr(blocks, name)[index] for name in ("vpp", "vpm", "vmp", "vmm"))),
            rho[index], phi[index])


def column_bits(cols: dict, index=slice(None)) -> dict:
    return {name: column[index].tobytes() for name, column in cols.items()}


def with_block(fields: tuple, pos: int, replace) -> tuple:
    """``fields`` with the blocks of instance ``pos`` replaced by ``replace(name, block)``."""
    s, blocks, rho, phi = fields
    stacks = {name: np.array(getattr(blocks, name)) for name in ("vpp", "vpm", "vmp", "vmm")}
    for name, stack in stacks.items():
        stack[pos] = replace(name, stack[pos])
    return s, WwmBlocks(**stacks), rho, phi


@pytest.mark.parametrize("dim", range(2, 9))
def test_evaluate_gives_each_instance_of_a_stack_its_bits_alone(dim):
    fields = drawn(13, every_lane_class(dim), dim)
    cols, errors = evaluate(*fields)
    assert not errors and not np.isnan(cols["v"]).any()
    # Every column is written to instances.csv or read by a row of CHECKS.
    assert set(cols) == set(CSV_COLUMNS[5:]) | {c.column for c in measures.CHECKS if c.column}
    for i in range(len(fields[0])):
        alone, errors = evaluate(*stack_take(fields, [i]))
        assert not errors and column_bits(alone) == column_bits(cols, [i]), i
        # Every report field is a column, with the bits of the report route.
        s, blocks, rho, phi = stack_take(fields, i)
        inst = InterferometerInstance(s=float(s), blocks=blocks, rho_d0=rho, phi=float(phi))
        own = hierarchy_reports(inst.kernel, branch_spectra(inst.kernel, False))
        assert _report({name: cols[name][i] for name in own}) == hierarchy_report(inst)


def test_evaluate_records_a_degenerate_instance_at_its_position():
    jobs = every_lane_class(2)
    fields = drawn(4, jobs, 2)
    # theta = 0 with s = 1 sends no amplitude down the minus way.
    dead, target = from_tilted_pair(0.0, np.eye(2), np.eye(2)), 5
    s, blocks, rho, phi = with_block(fields, target, lambda name, block: getattr(dead, name))
    s = s.copy()
    s[target] = 1.0
    cols, errors = evaluate(s, blocks, rho, phi)
    assert list(errors) == [target] and isinstance(errors[target], DegenerateBranchError)
    assert all(np.isnan(column[target]) for name, column in cols.items() if name not in ("s", "phi"))
    for i in set(range(len(jobs))) - {target}:
        alone, _ = evaluate(*stack_take(fields, [i]))
        assert column_bits(alone) == column_bits(cols, [i]), i


def test_evaluate_measures_the_members_beside_a_degenerate_one_as_one_batch(monkeypatch):
    jobs = every_lane_class(2)
    fields = drawn(4, jobs, 2)
    dead, target = from_tilted_pair(0.0, np.eye(2), np.eye(2)), 5
    s, blocks, rho, phi = with_block(fields, target, lambda name, block: getattr(dead, name))
    s = s.copy()
    s[target] = 1.0
    # The first instance, a pure marker at s = 1, fails its identity in the batch of the others too.
    inject_identity_failure(monkeypatch, phi[0])
    calls = chain_calls(monkeypatch)
    cols, errors = evaluate(s, blocks, rho, phi)
    # One pass over the whole stack, whatever fails.
    assert calls["branch_spectra"] == [len(jobs)]
    assert {name: len(sizes) for name, sizes in calls.items()} == dict.fromkeys(calls, 1)
    assert list(errors) == [0, target]
    assert isinstance(errors[0], IdentityError) and isinstance(errors[target], DegenerateBranchError)
    assert not np.isnan(cols["v"][0]) and np.isnan(cols["pure_identity_residual"][0])
    for i in set(range(1, len(jobs))) - {target}:
        alone, _ = evaluate(*stack_take((s, blocks, rho, phi), [i]))
        assert column_bits(alone) == column_bits(cols, [i]), i


def test_evaluate_keeps_the_report_of_an_instance_that_fails_an_identity(monkeypatch):
    jobs = every_lane_class(3)
    fields = drawn(8, jobs, 3)
    clean, _ = evaluate(*fields)
    target = next(i for i, job in enumerate(jobs) if job[2:] == ("pure", "s_pure"))
    inject_identity_failure(monkeypatch, fields[3][target])
    cols, errors = evaluate(*fields)
    assert list(errors) == [target] and isinstance(errors[target], IdentityError)
    assert not np.isnan(cols["v"][target]) and np.isnan(cols["pure_identity_residual"][target])
    clean["pure_identity_residual"][target] = np.nan
    assert column_bits(cols) == column_bits(clean)


def test_one_failing_member_of_a_stack_is_recorded_in_the_one_pass(monkeypatch):
    classes = list(itertools.product(("unitary_pair", "general_unitary", "tilted_pair"),
                                     sweep.WWM_CLASSES, sweep.S_CLASSES))
    jobs = [(stream, *classes[stream % len(classes)]) for stream in range(1024)]
    fields = drawn(6, jobs, 2)
    clean, errors = evaluate(*fields)
    target = next(i for i in range(500, len(jobs)) if jobs[i][2:] == ("pure", "s_pure"))
    assert not errors and not np.isnan(clean["pure_identity_residual"][target])
    inject_identity_failure(monkeypatch, fields[3][target])
    calls = chain_calls(monkeypatch)
    cols, errors = evaluate(*fields)
    # The whole stack once: the failure is recorded, nothing is measured again.
    assert calls["branch_spectra"] == [1024]
    assert {name: len(sizes) for name, sizes in calls.items()} == dict.fromkeys(calls, 1)
    assert list(errors) == [target] and str(errors[target]) == "injected failure"
    clean["pure_identity_residual"][target] = np.nan
    assert column_bits(cols) == column_bits(clean)


def test_a_stack_of_degenerate_members_records_each_in_one_pass(monkeypatch):
    s, blocks, rho, phi = drawn(4, every_lane_class(2)[:3], 2)
    # theta = 0 with s = 1 sends no amplitude down the minus way.
    dead = from_tilted_pair(np.zeros(3), np.broadcast_to(np.eye(2), (3, 2, 2)), np.broadcast_to(np.eye(2), (3, 2, 2)))
    fields = (np.ones(3), dead, rho, phi)
    calls = chain_calls(monkeypatch)
    cols, errors = evaluate(*fields)
    # No |s| = 1 check runs: every member failed before them.
    assert calls == {"branch_spectra": [3], "pure_identities": [], "mixing_bounds": []}
    assert all(np.isnan(column).all() for name, column in cols.items() if name not in ("s", "phi"))
    for i in range(3):
        _, alone = evaluate(*stack_take(fields, [i]))
        assert (type(errors[i]), str(errors[i])) == (type(alone[0]), str(alone[0])) and "degenerate" in str(alone[0])
    assert list(errors) == [0, 1, 2]


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_the_identity_tests_mark_every_polarized_member_that_fails_them(monkeypatch, dim):
    # Below zero, each identity test of pure_identities fails for every pure
    # polarized member: each test must record them all in the one pass, and
    # each member must come out as it does alone.  The recomposition of a mixed
    # member is gated by its CHECKS row, so only mixed_state_bound_check raises on it.
    jobs = every_lane_class(dim)
    fields = drawn(13, jobs, dim)
    monkeypatch.setattr(measures, "IDENTITY_ATOL", -1.0)
    pure, mixed = ([i for i, job in enumerate(jobs) if job[2:] == (wwm, "s_pure")] for wwm in ("pure", "mixed"))
    for i in mixed:
        s, blocks, rho, phi = stack_take(fields, i)
        inst = InterferometerInstance(s=float(s), blocks=blocks, rho_d0=rho, phi=float(phi))
        with pytest.raises(IdentityError, match="^spectral recomposition of the contrast factor failed: "):
            mixed_state_bound_check(inst)
    calls = chain_calls(monkeypatch)
    cols, errors = evaluate(*fields)
    assert calls == {"branch_spectra": [len(jobs)], "pure_identities": [len(pure)], "mixing_bounds": [len(mixed)]}
    assert list(errors) == pure
    assert {str(errors[i]).split(":")[0] for i in pure} == {"half-difference spectrum is not symmetric"}
    assert not np.isnan(cols["contrast_recomposition"][mixed]).any()
    for i in range(len(jobs)):
        alone, failed = evaluate(*stack_take(fields, [i]))
        assert [(type(e), str(e)) for e in failed.values()] == (
            [(type(errors[i]), str(errors[i]))] if i in errors else [])
        assert column_bits(alone) == column_bits(cols, [i]), i


def polarized_lane(dim: int, wwm: str) -> tuple:
    """The kernel and spectra of the polarized members with ``wwm`` markers of an every_lane_class stack."""
    jobs = every_lane_class(dim)
    s, blocks, rho, phi = drawn(13, jobs, dim)
    k = interferometer.branch_kernel(blocks, s, validate_instances(s, blocks, rho, phi), phi)
    k = k.take([i for i, job in enumerate(jobs) if job[2:] == (wwm, "s_pure")])
    return k, measures.branch_spectra(k, True)


# Each raise site of the measurement chain as (test, dim, markers, field,
# value): ``value(k, sp)`` in that kernel or spectra field fails the test alone.
RAISE_SITES = {
    "degenerate": (lambda k, sp, failed=None: interferometer.conditional_states(k, failed), 2, "pure", "wm_tr",
                   lambda k, sp: 0.0),
    "saturation": (measures.pure_identities, 2, "pure", "p", lambda k, sp: 1.0),
    "symmetric": (measures.pure_identities, 2, "pure", "diff", lambda k, sp: sp.diff + [0.0, 1e-6]),
    "rank": (measures.pure_identities, 3, "pure", "diff", lambda k, sp: sp.diff + [0.0, 1e-6, 0.0]),
    "quality": (measures.pure_identities, 2, "pure", "q", lambda k, sp: sp.q + 1e-6),
    "overlap": (measures.pure_identities, 2, "pure", "rho_minus", lambda k, sp: sp.rho_plus),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_each_raise_site_marks_exactly_the_members_that_fail_it(site):
    test, dim, wwm, field, value = RAISE_SITES[site]
    k, sp = polarized_lane(dim, wwm)
    marked = [1, 4, 5]
    old = getattr(sp if field in sp._fields else k, field)
    new = np.where(np.isin(np.arange(len(k.s)), marked).reshape((-1,) + (1,) * (old.ndim - 1)), value(k, sp), old)
    if field in sp._fields:
        sp = sp._replace(**{field: new})
    else:
        k = dataclasses.replace(k, **{field: new})

    def alone(i):
        with pytest.raises((DegenerateBranchError, IdentityError)) as raised:
            test(k.take([i]), measures.BranchSpectra(*(part[[i]] for part in sp)))
        return type(raised.value), str(raised.value)

    expected = DegenerateBranchError if site in ("degenerate", "saturation") else IdentityError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Record mode: exactly the marked members, each with the error it raises alone.
        failed = {}
        test(k, sp, failed)
        assert sorted(failed) == marked
        assert [(type(failed[i]), str(failed[i])) for i in marked] == [alone(i) for i in marked]
        assert {type(exc) for exc in failed.values()} == {expected}
        # Raise mode: the first failing member's error.
        with pytest.raises(expected) as batch:
            test(k, sp)
    assert (type(batch.value), str(batch.value)) == alone(marked[0])


def test_evaluate_names_the_instance_whose_joint_operator_is_not_unitary():
    fields = with_block(drawn(2, every_lane_class(4), 4), 7, lambda name, block: block * 1.001)
    with pytest.raises(ValidationError, match=re.escape("joint operator[7]")):
        evaluate(*fields)


def joined(*stacks) -> tuple:
    """The ``evaluate`` arguments of several stacks, one after another."""
    s, blocks, rho, phi = zip(*stacks)
    return (np.concatenate(s), WwmBlocks(*(np.concatenate([getattr(b, name) for b in blocks])
                                           for name in ("vpp", "vpm", "vmp", "vmm"))),
            np.concatenate(rho), np.concatenate(phi))


def test_evaluate_takes_a_marker_that_the_density_check_accepts_at_its_edge():
    # rho_d0 has eigenvalues 1 + 1e-11 and -1e-11, which require_density
    # accepts (min eigenvalue >= -1e-10).  Its chi closed form takes the
    # weights 1 + 1e-11 and 0, whose sum is off one by more than 1e-12:
    # the chain must not check them again.
    h = (linalg.SIGMA_X + linalg.SIGMA_Z) / math.sqrt(2.0)
    up = np.diag([np.exp(0.65j), np.exp(-0.65j)])
    edge = (np.ones(1), from_tilted_pair([0.75], up[None], up.conj()[None]),
            (h @ np.diag([1.0 + 1e-11, -1e-11]) @ h)[None], np.zeros(1))
    clean = drawn(5, [(0, "tilted_pair", "mixed", "s_pure")], 2)
    alone = [evaluate(*clean), evaluate(*edge)]
    cols, errors = evaluate(*joined(clean, edge))
    assert not errors and not any(failed for _, failed in alone)
    assert cols["chi_closed_dev"][1] < 1e-9
    for i, (row, _) in enumerate(alone):
        assert column_bits(row) == column_bits(cols, [i]), i


def test_evaluate_checks_each_group_once_where_it_enters(monkeypatch):
    # validate_instances checks a stack once, its markers through
    # require_density; nothing after it calls a public validator again.
    def refused(*args):
        raise AssertionError("a validated input was checked again")

    monkeypatch.setattr(linalg, "hermitian_eigen", refused)
    hermitian, require_hermitian = [], linalg.require_hermitian

    def counted(m, name="matrix"):
        hermitian.append(name)
        return require_hermitian(m, name)

    monkeypatch.setattr(linalg, "require_hermitian", counted)
    for dim in (2, 3, 4):
        hermitian.clear()
        cols, errors = evaluate(*drawn(dim, every_lane_class(dim), dim))
        assert not errors and hermitian == ["rho_d0"]
        # The columns that read rho_d0's spectrum, and the two-level ones, were computed.
        assert (~np.isnan(cols["mixing_bound_slack"])).any()
        assert (~np.isnan(cols["d_two_level"])).all() == (~np.isnan(cols["chi_closed_dev"])).any() == (dim == 2)


def lane_rule(jobs: list, dim: int) -> dict:
    """Where each lane-gated check applies by the lane labels of ``_draw``
    jobs: the cells of its column that ``evaluate`` must leave non-NaN."""
    pure = np.array([job[3] == "s_pure" and job[2] == "pure" for job in jobs])
    mixed = np.array([job[3] == "s_pure" and job[2] == "mixed" for job in jobs])
    return {"d_two_level": np.full(len(jobs), dim == 2), "pure_saturation_xi": pure, "pure_saturation_d": pure,
            "pure_identity_residual": pure, "mixing_bound_slack": mixed, "contrast_recomposition": mixed}


@pytest.mark.parametrize("dim", range(2, 9))
def test_evaluate_applies_each_check_where_the_lane_rule_does(dim):
    jobs = every_lane_class(dim)
    fields = drawn(17, jobs, dim)
    cols, errors = evaluate(*fields)
    assert not errors
    rule = lane_rule(jobs, dim)
    assert {name: (~np.isnan(cols[name])).tolist() for name in rule} == {
        name: applies.tolist() for name, applies in rule.items()}
    assert measures._purities(fields[2])[1].tolist() == [job[2] == "pure" for job in jobs]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), dim=st.integers(2, 8))
def test_the_purity_test_classifies_every_generated_marker_as_its_lane(seed, dim):
    jobs = every_lane_class(dim)
    purity, pure = measures._purities(sweep._draw(seed, jobs, dim)[2])
    assert pure.tolist() == [job[2] == "pure" for job in jobs]
    # Far from the tolerance on both sides.
    assert np.all(np.where(pure, np.abs(purity - 1.0) < 1e-14, purity < 1.0 - 100 * PURITY_ATOL))


@pytest.mark.parametrize("dim", [2, 3, 8])
@pytest.mark.parametrize("eps, pure", [(1e-11, True), (1e-9, False)])
def test_a_marker_within_the_purity_tolerance_gets_the_pure_identity(dim, eps, pure):
    # A rank-2 marker (1 - eps) |a><a| + eps |b><b| has purity 1 - 2 eps + 2 eps^2.
    gen = linalg.rng(31, dim)
    basis = linalg.haar_unitary_from(gen, dim)
    rho = (1.0 - eps) * np.outer(basis[:, 0], basis[:, 0].conj()) + eps * np.outer(basis[:, 1], basis[:, 1].conj())
    u = linalg.haar_from_normals(gen.standard_normal((2, 2, dim, dim)))
    cols, errors = evaluate(np.ones(1), from_unitary_pair(u[:1], u[1:]), rho[None], np.zeros(1))
    assert not errors
    assert np.isnan(cols["mixing_bound_slack"][0]) == pure == ~np.isnan(cols["pure_identity_residual"][0])
    if pure:
        assert cols["pure_identity_residual"][0] <= 1e-10
    else:
        assert cols["mixing_bound_slack"][0] >= -measures.SLACK_TOL


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_evaluate_takes_stacks_with_one_leading_axis(lead):
    eye = np.broadcast_to(np.eye(2), lead + (2, 2))
    with pytest.raises(ValidationError, match=r"\(N, n, n\).*InterferometerInstance and hierarchy_report"):
        evaluate(np.ones(lead), from_unitary_pair(eye, eye), eye / 2.0, np.zeros(lead))
