import decimal
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import conditional_states_from_final, decimal_report, random_density

from duality import linalg, measures
from duality.errors import DegenerateBranchError, ValidationError
from duality.interferometer import (
    InterferometerInstance,
    WwmBlocks,
    branch_kernel,
    conditional_wwm_states,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
)
from duality.linalg import SIGMA_X, rng
from duality.measures import (
    distinguishability,
    evaluate,
    hierarchy_report,
    mixed_state_bound_check,
    pure_state_identity_check,
    quality,
    r_measure,
    spectral_components,
    state_independent_ways,
)
from duality.sqds import SqdsForms, sqds_instances
from duality.sweep import BLOCK_CLASSES, S_CLASSES, STRINGENCY_CLASS, WWM_CLASSES, generate_instance
from duality.tolerances import STATE_INDEPENDENT_ATOL

I2 = np.eye(2, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def two_level_trace_distance(rho, sigma):
    """Closed-form 2x2 trace distance: half the Bloch-vector separation."""
    diff = rho - sigma
    bloch = np.array([np.trace(diff @ s).real for s in
                      (SIGMA_X, np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))])
    return 0.5 * np.linalg.norm(bloch)


# --- distinguishability ---------------------------------------------------------

def test_distinguishability_identical_conditionals_reduce_to_p():
    rho = random_density(3, 2, 1)
    assert distinguishability(0.8, rho, 0.2, rho) == pytest.approx(0.6, abs=1e-12)


def test_distinguishability_orthogonal_pure():
    assert distinguishability(0.5, KET0, 0.5, KET1) == pytest.approx(1.0, abs=1e-12)


def test_distinguishability_certain_way():
    assert distinguishability(1.0, KET0, 0.0, PLUS) == pytest.approx(1.0, abs=1e-12)


def test_distinguishability_validates():
    with pytest.raises(ValidationError):
        distinguishability(0.7, KET0, 0.7, KET1)
    with pytest.raises(ValidationError):
        distinguishability(0.5, np.diag([2.0, -1.0]), 0.5, KET1)


# --- quality ----------------------------------------------------------------------

def test_quality_trivial_cases():
    assert quality(KET0, KET0) == pytest.approx(0.0, abs=1e-12)
    assert quality(KET0, KET1) == pytest.approx(1.0, abs=1e-12)


def test_quality_zero_vs_plus_matches_closed_form():
    # oracle: trace distance of pure qubit states is sqrt(1 - |<a|b>|^2)
    overlap_sq = 0.5
    assert quality(KET0, PLUS) == pytest.approx(math.sqrt(1.0 - overlap_sq), abs=1e-12)
    assert quality(KET0, PLUS) == pytest.approx(two_level_trace_distance(KET0, PLUS), abs=1e-12)


# --- xi ------------------------------------------------------------------------------
# Xi has no function of numbers; these test the engine's _xi, which the xi column reads.

def test_xi_edge_values():
    assert measures._xi(0.0, 0.4) == 0.4
    assert measures._xi(1.0, 0.3) == pytest.approx(1.0, abs=1e-15)


def test_xi_frozen_value():
    # 0.7^2 + 0.7^2 - 0.7^4 = 0.7399, cross-checked via 1 - (1 - p^2)(1 - q^2)
    assert measures._xi(0.7, 0.7) == pytest.approx(math.sqrt(0.7399), abs=1e-15)
    assert measures._xi(0.7, 0.7) ** 2 == pytest.approx(1.0 - (1.0 - 0.49) ** 2, abs=1e-15)


@settings(deadline=None, max_examples=100)
@given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
def test_xi_symmetric_and_dominant(p, q):
    assert measures._xi(p, q) == measures._xi(q, p)
    assert measures._xi(p, q) >= max(p, q, p * q) - 1e-12
    assert measures._xi(p, q) <= 1.0 + 1e-15


def test_xi_dominance_grid():
    p, q = np.meshgrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))
    assert (measures._xi(p, q) >= np.maximum(np.maximum(p, q), p * q) - 1e-12).all()


def test_xi_clamps_derived_values_into_the_unit_interval():
    # Derived P and Q may stray past [0, 1] by round-off; _xi clamps them rather than rejecting them.
    assert measures._xi(1.2, 0.0) == 1.0
    assert measures._xi(0.5, -0.1) == 0.5


# --- r_measure and the two-level distinguishability -----------------------------------

def test_r_measure_information_free():
    rho = random_density(2, 1, 3)
    assert r_measure(0.5, rho, 0.5, rho, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_r_measure_orthogonal():
    assert r_measure(0.5, KET0, 0.5, KET1, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_r_measure_rejects_other_dims(monkeypatch):
    def unreached(*args):
        raise AssertionError("r_measure solved an eigenproblem before it checked n")

    monkeypatch.setattr(measures, "_conditional_spectra", unreached)
    rho = np.eye(3) / 3.0
    with pytest.raises(ValidationError, match="two-level markers only, got n=3"):
        r_measure(0.5, rho, 0.5, rho, 0.0)


def test_d_two_level_column_where_p_or_r_gives_d():
    # P = |cos 2 theta| = 0.6 beside identical conditional states (R = 0), and P = 0 beside orthogonal ones (R = 1).
    blocks = from_tilted_pair(np.array([0.5 * math.acos(0.6), math.pi / 4.0]), np.stack([I2, I2]),
                              np.stack([I2, SIGMA_X]))
    cols, errors = evaluate(np.ones(2), blocks, np.stack([I2 / 2.0, KET0]), np.zeros(2))
    assert not errors
    for name, expected in (("p", [0.6, 0.0]), ("r", [0.0, 1.0]), ("d", [0.6, 1.0])):
        assert cols[name] == pytest.approx(expected, abs=1e-12), name
    assert (cols["d_two_level"] <= 1e-12).all()


@pytest.mark.parametrize("block_class", ["unitary_pair", "general_unitary"])
def test_max_p_r_equals_trace_norm_d(block_class):
    for stream in range(200):
        inst = generate_instance(7, stream, 2, "pure", "s_pure", block_class)
        try:
            w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
        except DegenerateBranchError:
            continue
        p = abs(w_plus - w_minus)
        d = distinguishability(w_plus, rho_plus, w_minus, rho_minus)
        r = r_measure(w_plus, rho_plus, w_minus, rho_minus, p)
        assert abs(max(p, r) - d) <= 1e-10


def test_max_p_r_equals_d_also_for_mixed_two_level():
    for stream in range(100):
        inst = generate_instance(8, stream, 2, "mixed", "s_mixed", "general_unitary")
        try:
            w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
        except DegenerateBranchError:
            continue
        p = abs(w_plus - w_minus)
        d = distinguishability(w_plus, rho_plus, w_minus, rho_minus)
        r = r_measure(w_plus, rho_plus, w_minus, rho_minus, p)
        assert abs(max(p, r) - d) <= 1e-10


# --- chi closed form ----------------------------------------------------------------
# The closed form has no function of numbers; these test the engine's chi and chi_closed_dev columns.

def test_chi_is_one_for_a_pure_marker_and_for_balanced_ways():
    # A pure marker (p_d^2 + v_d0^2 = 1) has D = Xi; balanced ways (p_q = 0) have P = 0.
    cols, errors = evaluate(*sqds_instances(SqdsForms([0.6, 0.3], [0.8, 0.4], [0.5, 0.0], 1.0)))
    assert not errors
    assert cols["chi"] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert (cols["chi_closed_dev"] <= 1e-12).all()


def test_chi_frozen_point():
    # The fig4 point |s_D|^2 = 0.75, P^2 = 0.5: D1 D2 = 1/16 and Xi^2 = 0.75, so chi = 1 - 0.125/0.75 = 5/6.
    cols, errors = evaluate(*sqds_instances(SqdsForms(0.5, math.sqrt(0.5), math.sqrt(0.5), math.pi / 2.0)))
    assert not errors
    assert cols["xi"] ** 2 == pytest.approx([0.75], abs=1e-12)
    assert cols["chi"] == pytest.approx([5.0 / 6.0], abs=1e-12)


def test_chi_column_equals_the_spectrum_closed_form_from_consistent_inputs():
    # Where P <= R, chi = 1 - 4 D1 D2 P^2/Xi^2 with D1, D2 the eigenvalues (1 +- |s_D|)/2 of rho_d0.
    # The engine's inputs to it are consistent: Xi >= P, D1 + D2 = 1, and chi in [0, 1].
    gen = rng(22, 0)
    p_d = gen.uniform(0.0, 1.0, 300)
    forms = SqdsForms(p_d, gen.uniform(0.0, 1.0, 300) * np.sqrt(1.0 - p_d ** 2), gen.uniform(0.0, 0.999, 300),
                      gen.uniform(0.0, 2.0 * math.pi, 300))
    cols, errors = evaluate(*sqds_instances(forms))
    assert not errors
    by_spectrum = cols["p"] <= cols["r"]
    assert by_spectrum.sum() > 50
    s_d = np.sqrt(forms.p_d ** 2 + forms.v_d0 ** 2)
    d1, d2, p, xi_value = (1.0 + s_d) / 2.0, (1.0 - s_d) / 2.0, cols["p"], cols["xi"]
    closed = 1.0 - 4.0 * d1 * d2 * p ** 2 / xi_value ** 2
    assert np.abs(cols["chi"] - closed)[by_spectrum].max() <= 1e-9
    assert (cols["xi"] >= cols["p"] - 1e-12).all()
    assert ((cols["chi"] >= -1e-12) & (cols["chi"] <= 1.0 + 1e-12)).all()
    assert (cols["chi_closed_dev"] <= 1e-9).all()


CHI_THRESHOLD = {check.name: check.threshold for check in measures.CHECKS}["chi_closed_form"]


def test_chi_closed_form_holds_next_to_the_p_r_tie():
    # p_q 3e-13 above its tie Q/sqrt(0.66 + Q^2) (|s_D|^2 = 0.34, quality Q) puts 0 < P - R <= 1e-12; the
    # spectrum branch there reads R^2/Xi^2, about (P^2 - R^2)/Xi^2 off chi, past 1e-9 once Xi < 1e-3.
    quality = np.array([1e-3, 1e-4, 1e-5])
    forms = SqdsForms(0.3, 0.5, quality / np.sqrt(0.66 + quality ** 2) + 3e-13, np.arcsin(2.0 * quality))
    cols, errors = evaluate(*sqds_instances(forms))
    assert not errors
    assert ((cols["p"] - cols["r"] > 0.0) & (cols["p"] - cols["r"] <= 1e-12)).all()
    assert (cols["chi_closed_dev"] <= CHI_THRESHOLD).all()  # chi is formed, and holds


def test_chi_closed_form_holds_at_small_xi():
    # Away from any tie, the round-off of D^2/Xi^2 grows as 1/Xi (Xi from 2.2e-7 down to 2.2e-9 here):
    # chi is formed only where it stays inside the row's threshold.
    quality = np.array([1e-7, 1e-7, 1e-8, 1e-8, 1e-9, 1e-9])
    forms = SqdsForms(0.3, 0.5, quality * np.array([0.5, 2.0, 0.5, 2.0, 0.5, 2.0]), np.arcsin(2.0 * quality))
    cols, errors = evaluate(*sqds_instances(forms))
    assert not errors and not np.isnan(cols["slack_main"]).any()  # every instance is gated
    assert not (cols["chi_closed_dev"] > CHI_THRESHOLD).any()


# --- hierarchy report ------------------------------------------------------------------

def test_report_identity_blocks():
    inst = InterferometerInstance(s=1.0, blocks=from_unitary_pair(I2, I2), rho_d0=KET0)
    rep = hierarchy_report(inst)
    assert rep["v"] == pytest.approx(1.0, abs=1e-12)
    for value in (rep["p"], rep["q"], rep["d"], rep["xi"]):
        assert value == pytest.approx(0.0, abs=1e-12)
    for slack in rep["slacks"].values():
        assert abs(slack) <= 1e-10
    assert rep["chi"] is None  # xi = 0: the stringency ratio is undefined
    assert "main" in rep["slacks"]


def test_report_orthogonal_marker():
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, SIGMA_X), rho_d0=KET0)
    rep = hierarchy_report(inst)
    assert rep["q"] == pytest.approx(1.0, abs=1e-12)
    assert rep["d"] == pytest.approx(1.0, abs=1e-12)
    assert rep["xi"] == pytest.approx(1.0, abs=1e-12)
    assert rep["v"] == pytest.approx(0.0, abs=1e-12)
    assert "main" not in rep["slacks"]  # quanton is not polarized


def test_report_pure_preparation_saturates():
    for stream in range(100):
        inst = generate_instance(11, stream, int(rng(11, stream).integers(2, 5)),
                                 "pure", "s_pure", "general_unitary")
        try:
            rep = hierarchy_report(inst)
        except DegenerateBranchError:
            continue
        assert abs(rep["v"] ** 2 + rep["xi"] ** 2 - 1.0) <= 1e-10
        assert abs(rep["d"] - rep["xi"]) <= 1e-10


def test_report_slacks_nonnegative_random():
    for stream in range(150):
        inst = generate_instance(12, stream, int(rng(12, stream).integers(2, 5)),
                                 "mixed", "s_mixed", "general_unitary")
        try:
            rep = hierarchy_report(inst)
        except DegenerateBranchError:
            continue
        for name in ("o2p", "o2q", "o2_nuevita", "o1"):
            assert rep["slacks"][name] >= -1e-9
        for value in (rep["v"], rep["p"], rep["q"], rep["d"], rep["xi"]):
            assert -1e-9 <= value <= 1.0 + 1e-9
        assert rep["xi"] >= max(rep["p"], rep["q"]) - 1e-10
        assert rep["d"] >= rep["p"] - 1e-10


def test_report_r_none_for_higher_dims():
    inst = generate_instance(13, 0, 3, "mixed", "s_mixed", "unitary_pair")
    rep = hierarchy_report(inst)
    assert rep["r"] is None and rep["chi"] is None


def test_report_serializes_flat():
    inst = generate_instance(13, 1, 2, "mixed", "s_mixed", "unitary_pair")
    data = hierarchy_report(inst)
    assert set(data) == {"v", "p", "q", "d", "xi", "r", "chi", "v_bound_d", "v_bound_xi", "slacks"}
    assert set(data["slacks"]) >= {"o2p", "o2q", "o2_nuevita", "o1"}


def test_report_slacks_are_the_slack_rows_the_report_columns_hold(monkeypatch):
    # Gated: two-level, polarized, state-independent ways; its mixed marker also
    # gets the mixing bound, a slack row whose column only evaluate writes.
    cases = {("mixed", "s_pure", 2): ["o2p", "o2q", "o2_nuevita", "o1", "main"],
             ("mixed", "s_mixed", 2): ["o2p", "o2q", "o2_nuevita", "o1"],
             ("pure", "s_pure", 3): ["o2p", "o2q", "o2_nuevita", "o1"]}
    insts = {case: generate_instance(5, i, case[2], case[0], case[1], "unitary_pair") for i, case in enumerate(cases)}
    reports = {case: hierarchy_report(inst) for case, inst in insts.items()}
    for case, slacks in cases.items():
        assert list(reports[case]) == ["v", "p", "q", "d", "xi", "r", "chi", "v_bound_d", "v_bound_xi", "slacks"]
        assert list(reports[case]["slacks"]) == slacks, case
    # A slack row on a column hierarchy_reports does not write, as a rung row's, changes no report.
    rung = measures.Check("rung", "rung_slack", "slack", -measures.SLACK_TOL, None, None)
    monkeypatch.setattr(measures, "CHECKS", (rung, *measures.CHECKS, rung))
    for case, inst in insts.items():
        assert hierarchy_report(inst) == reports[case], case


def test_balanced_collapse_q_equals_d_equals_xi():
    # unitary-pair blocks make the splitter symmetric, so P vanishes exactly
    for stream in range(60):
        inst = generate_instance(14, stream, 3, "mixed", "s_mixed", "unitary_pair")
        rep = hierarchy_report(inst)
        assert rep["p"] <= 1e-12
        assert abs(rep["d"] - rep["q"]) <= 1e-9
        assert abs(rep["xi"] - rep["q"]) <= 1e-9


def test_monotone_bound_chain_on_gated_class():
    for stream in range(100):
        inst = generate_instance(15, stream, 2, "mixed", "s_pure", "tilted_pair")
        rep = hierarchy_report(inst)
        assert "main" in rep["slacks"]
        assert rep["v"] <= rep["v_bound_xi"] + 1e-9
        assert rep["v_bound_xi"] <= rep["v_bound_d"] + 2e-9


# D <= P + (1 - P) Q by the triangle inequality on w- (rho+ - rho-) + P rho+ (for
# w+ >= w-), so Xi - D >= sqrt(P^2 + Q^2 - P^2 Q^2) - P - (1 - P) Q, whose minimum
# over the unit square, at P = Q = (sqrt 3 - 1)/2, is (5 - 3 sqrt 3)/2.
XI_MINUS_D_FLOOR = (5.0 - 3.0 * math.sqrt(3.0)) / 2.0


def test_d_has_a_ceiling_and_xi_minus_d_a_floor_on_every_generated_class():
    lanes = itertools.product(range(3), range(3), (*BLOCK_CLASSES, STRINGENCY_CLASS), WWM_CLASSES, S_CLASSES,
                              range(1, 9))
    for seed, stream, block, wwm, s_class, dim in lanes:
        if wwm == "mixed" and dim < 2:
            continue
        inst = generate_instance(seed, stream, dim, wwm, s_class, block)
        try:
            w_plus, rho_plus, w_minus, rho_minus = conditional_states_from_final(inst)
        except DegenerateBranchError:
            continue
        p = abs(w_plus - w_minus)
        q = 0.5 * np.abs(np.linalg.eigvalsh(rho_plus - rho_minus)).sum()
        d = np.abs(np.linalg.eigvalsh(w_plus * rho_plus - w_minus * rho_minus)).sum()
        xi = math.sqrt(p * p + q * q - p * p * q * q)
        lane = (seed, stream, block, wwm, s_class, dim)
        assert d <= p + (1.0 - p) * q + 1e-12, lane
        assert xi - d >= XI_MINUS_D_FLOOR - 1e-12, lane
        if block == "unitary_pair":
            # The equality family: balanced ways, so P = 0 and Xi = Q = D.
            assert max(p, abs(xi - q), abs(xi - d)) <= 1e-12, lane


def test_the_xi_minus_d_floor_is_attained():
    p = q = (math.sqrt(3.0) - 1.0) / 2.0
    rho_plus, rho_minus = KET0, np.diag([1.0 - q, q]).astype(complex)
    d = distinguishability((1.0 + p) / 2.0, rho_plus, (1.0 - p) / 2.0, rho_minus)
    assert quality(rho_plus, rho_minus) == pytest.approx(q, abs=1e-15)
    assert d == pytest.approx(p + (1.0 - p) * q, abs=1e-15)
    assert math.sqrt(p * p + q * q - p * p * q * q) - d == pytest.approx(XI_MINUS_D_FLOOR, abs=1e-15)


def test_two_level_reports_lie_within_eight_epsilons_of_a_decimal_oracle():
    # Every class at n = 2, from the stored numbers of each instance: the
    # report's rounding is the engine's alone, a few machine epsilons.
    tol = decimal.Decimal(8 * sys.float_info.epsilon)
    lanes = itertools.product(range(3), range(25), (*BLOCK_CLASSES, STRINGENCY_CLASS), WWM_CLASSES, S_CLASSES)
    for seed, stream, block, wwm, s_class in lanes:
        inst = generate_instance(seed, stream, 2, wwm, s_class, block)
        rep = hierarchy_report(inst)
        got = {**{name: rep[name] for name in ("v", "p", "q", "d", "xi")},
               **{name: rep["slacks"][name] for name in ("o2p", "o2q", "o2_nuevita", "o1")}}
        exact = decimal_report(inst)
        assert list(got) == list(exact)
        off = {name: abs(decimal.Decimal(got[name]) - exact[name]) for name in exact}
        assert max(off.values()) <= tol, (seed, stream, block, wwm, s_class, off)


# --- stringency gate -----------------------------------------------------------------

def _diagonal_way_counterexample() -> InterferometerInstance:
    """Way operators diagonal but not scalar; violates Xi >= D (so the gate
    must reject it even though the off-diagonals vanish)."""
    gen = rng(31, 20)
    a1, a2 = gen.uniform(0.02, 0.98), gen.uniform(0.02, 0.98)
    xp, xm = linalg.haar_unitary_from(gen, 2), linalg.haar_unitary_from(gen, 2)
    vpp = np.diag(np.sqrt([2 * a1, 2 * a2])).astype(complex) @ xp
    vpm = np.diag(np.sqrt([2 * (1 - a1), 2 * (1 - a2)])).astype(complex) @ xm
    top = np.hstack([vpp, vpm]) / math.sqrt(2.0)
    fill = gen.standard_normal((2, 4)) + 1j * gen.standard_normal((2, 4))
    q, _ = np.linalg.qr(np.vstack([top, fill]).conj().T)
    joint = np.vstack([top, q[:, 2:4].conj().T])
    d1 = gen.uniform(0.5, 1.0)
    return InterferometerInstance(
        s=1.0, blocks=from_global_unitary(joint),
        rho_d0=np.diag([d1, 1.0 - d1]).astype(complex))


def test_gate_accepts_state_independent_classes():
    for stream in range(10):
        assert state_independent_ways(generate_instance(16, stream, 2, "mixed", "s_pure", "unitary_pair"))
        assert state_independent_ways(generate_instance(16, stream, 2, "mixed", "s_pure", "tilted_pair"))


def test_gate_rejects_generic_blocks():
    count = sum(state_independent_ways(generate_instance(17, s, 2, "mixed", "s_pure", "general_unitary"))
                for s in range(20))
    assert count == 0


def test_gate_rejects_diagonal_but_unequal_ways():
    inst = _diagonal_way_counterexample()
    wp_op = inst.kernel.wp_op
    assert abs(wp_op[0, 1]) <= 1e-12  # diagonal...
    assert abs(wp_op[0, 0] - wp_op[1, 1]) > 0.01  # ...but state dependent
    assert not state_independent_ways(inst)
    rep = hierarchy_report(inst)
    assert "main" not in rep["slacks"]
    assert rep["xi"] - rep["d"] < -0.05  # the excluded instance really does violate Xi >= D


# --- pure-state identity ---------------------------------------------------------------

def test_pure_identity_orthogonal_marker():
    inst = InterferometerInstance(s=1.0, blocks=from_unitary_pair(I2, SIGMA_X), rho_d0=KET0)
    assert pure_state_identity_check(inst) <= 1e-12


def test_pure_identity_full_coherence():
    inst = InterferometerInstance(s=1.0, blocks=from_unitary_pair(I2, I2), rho_d0=KET0)
    assert pure_state_identity_check(inst) <= 1e-12


def test_pure_identity_random_sweep():
    for stream in range(300):
        dim = 2 + stream % 3
        inst = generate_instance(18, stream, dim, "pure", "s_pure", "general_unitary")
        try:
            assert pure_state_identity_check(inst) <= 1e-9
        except DegenerateBranchError:
            continue


def test_pure_identity_rejects_mixed_or_unpolarized():
    mixed = generate_instance(19, 0, 2, "mixed", "s_pure", "unitary_pair")
    with pytest.raises(ValidationError):
        pure_state_identity_check(mixed)
    unpolarized = generate_instance(19, 1, 2, "pure", "s_mixed", "unitary_pair")
    with pytest.raises(ValidationError):
        pure_state_identity_check(unpolarized)


@pytest.mark.parametrize("check, message", [
    (pure_state_identity_check, "pure identity requires |s| = 1, got s = 0.8843724231016306"),
    (mixed_state_bound_check, "mixing bound requires |s| = 1, got s = 0.8843724231016306"),
    (spectral_components, "spectral decomposition of the branch requires |s| = 1, got s = 0.8843724231016306"),
])
@pytest.mark.parametrize("dim, wwm, block", [(2, "pure", "unitary_pair"), (3, "mixed", "general_unitary")])
def test_the_polarized_checks_reject_an_unpolarized_quanton(check, message, dim, wwm, block):
    inst = generate_instance(19, 1, dim, wwm, "s_mixed", block)
    if check is pure_state_identity_check and wwm == "mixed":  # the purity test comes first
        message = "pure identity requires a pure marker state, purity = 0.48582627827136954"
    with pytest.raises(ValidationError) as raised:
        check(inst)
    assert str(raised.value) == message


@pytest.mark.parametrize("check", [pure_state_identity_check, mixed_state_bound_check, spectral_components])
def test_the_polarized_checks_test_the_branches_before_the_inversion(check):
    # The marker |0><0| enters neither way's conditional state, whatever s:
    # the rows 0 of V++ and V-+ vanish.  So w+ = 0 fails first, at s = 0.5 too.
    r2 = math.sqrt(2.0)
    blocks = WwmBlocks(vpp=[[0.0, 0.0], [r2, 0.0]], vpm=[[r2, 0.0], [0.0, 0.0]],
                       vmp=[[0.0, 0.0], [0.0, r2]], vmm=[[0.0, r2], [0.0, 0.0]])
    inst = InterferometerInstance(s=0.5, blocks=blocks, rho_d0=KET0)
    with pytest.raises(DegenerateBranchError, match=re.escape("degenerate branch: w+ = 0.0, w- = ")):
        check(inst)


def test_pure_identity_degenerate_predictability():
    one = np.eye(1, dtype=complex)
    inst = InterferometerInstance(s=1.0, blocks=from_tilted_pair(0.0, one, one), rho_d0=one)
    with pytest.raises(DegenerateBranchError):
        pure_state_identity_check(inst)


# --- mixing bound ------------------------------------------------------------------------

def test_mixing_bound_reduces_to_pure_identity():
    for stream in range(50):
        inst = generate_instance(20, stream, 3, "pure", "s_pure", "general_unitary")
        try:
            slack = mixed_state_bound_check(inst)["mixing_bound_slack"]
        except DegenerateBranchError:
            continue
        assert abs(slack) <= 1e-9


def test_mixing_bound_maximally_mixed_marker():
    # both spectral components map to orthogonal images, but the mixture's two
    # conditional states coincide, so the branch quality and contrast vanish
    # and the bound is maximally slack.
    inst = InterferometerInstance(s=1.0, blocks=from_unitary_pair(I2, SIGMA_X),
                                  rho_d0=np.eye(2, dtype=complex) / 2.0)
    assert mixed_state_bound_check(inst)["mixing_bound_slack"] == pytest.approx(1.0, abs=1e-12)
    comps = spectral_components(inst)
    assert len(comps["weight"]) == 2
    assert max(map(abs, comps["contrast"])) <= 1e-12
    assert max(comps["theta_sq"]) <= 1e-12


def test_mixing_bound_random_sweep_and_recomposition():
    from duality.interferometer import contrast_factors
    for stream in range(300):
        dim = 2 + stream % 3
        inst = generate_instance(21, stream, dim, "mixed", "s_pure", "general_unitary")
        try:
            bound = mixed_state_bound_check(inst)
        except DegenerateBranchError:
            continue
        assert list(bound) == ["mixing_bound_slack", "contrast_recomposition"]
        assert bound["mixing_bound_slack"] >= -1e-9
        comps = spectral_components(inst)
        recomposed = sum(w * c for w, c in zip(comps["weight"], comps["contrast"]))
        c_up, c_down, _ = contrast_factors(inst)
        branch = c_up if inst.s >= 0 else c_down
        assert abs(recomposed - branch) <= 1e-10
        assert bound["contrast_recomposition"] == abs(recomposed - branch)


def way_operators_proportional_to_identity(k, atol):
    """The way-operator test one operator at a time, the reference for the stacked one."""
    ok = True
    for op in (k.wp_op, k.wm_op):
        mean = np.trace(op, axis1=-2, axis2=-1).real / k.n
        ok = ok & (np.abs(op - mean[..., None, None] * np.eye(k.n)).max(axis=(-2, -1)) <= atol)
    return ok


def stacked_kernel(insts):
    blocks = WwmBlocks(*(np.stack([getattr(i.blocks, name) for i in insts])
                         for name in ("vpp", "vpm", "vmp", "vmm")))
    return branch_kernel(blocks, np.array([i.s for i in insts]), np.stack([i.rho_d0 for i in insts]),
                         np.array([i.phi for i in insts]))


def test_way_gate_tests_both_operators_in_one_pass():
    insts = [generate_instance(18, stream, 2, wwm, s_class, block)
             for stream, (block, wwm, s_class) in enumerate(itertools.product(
                 ("unitary_pair", "general_unitary", "tilted_pair"), ("pure", "mixed"), ("s_pure", "s_mixed")))]
    insts.append(_diagonal_way_counterexample())
    k = stacked_kernel(insts)
    # The gate's tolerance separates the classes.
    expected = way_operators_proportional_to_identity(k, STATE_INDEPENDENT_ATOL)
    assert 0 < np.count_nonzero(expected) < len(insts)
    assert measures._state_independent(k).tolist() == expected.tolist()
    assert [bool(measures._state_independent(i.kernel)) for i in insts] == expected.tolist()


def test_unpolarized_two_level_kernel_skips_the_way_gate(monkeypatch):
    # slack_main and chi apply to a polarized quanton only, so a kernel
    # without one never needs the way-operator test.
    insts = [generate_instance(19, stream, 2, "mixed", "s_mixed", "unitary_pair") for stream in range(4)]
    k = stacked_kernel(insts)
    assert not k.polarized.any()
    expected = measures.hierarchy_reports(k, measures.branch_spectra(k, False))

    def fail(*args):
        raise AssertionError("way gate evaluated")

    monkeypatch.setattr(measures, "_state_independent", fail)
    got = measures.hierarchy_reports(k, measures.branch_spectra(k, False))
    assert {name: repr(v.tolist()) for name, v in got.items()} == {
        name: repr(v.tolist()) for name, v in expected.items()}
    assert np.isnan(got["slack_main"]).all() and np.isnan(got["chi"]).all()

def test_theta_bounded_on_state_independent_classes():
    # theta_k <= 1 is provable exactly when the way probabilities carry no
    # marker-state dependence; assert it there (it can fail for generic blocks).
    for block_class in ("unitary_pair", "tilted_pair"):
        for stream in range(100):
            inst = generate_instance(22, stream, 2 + stream % 2, "mixed", "s_pure", block_class)
            for theta_sq in spectral_components(inst)["theta_sq"]:
                assert -1e-12 <= theta_sq <= 1.0 + 1e-9


def test_per_component_identity_with_own_weights():
    # every spectral component is itself a pure preparation and satisfies the
    # pure identity with its own way probabilities
    for stream in range(40):
        inst = generate_instance(23, stream, 3, "mixed", "s_pure", "general_unitary")
        eig = linalg.hermitian_eigen(inst.rho_d0)
        for k in range(inst.n):
            if eig.values[k] <= 1e-9:
                continue
            vec = eig.vectors[:, k]
            sub = InterferometerInstance(s=inst.s, blocks=inst.blocks,
                                         rho_d0=np.outer(vec, vec.conj()), phi=inst.phi)
            try:
                assert pure_state_identity_check(sub) <= 1e-9
            except DegenerateBranchError:
                continue


def test_readme_tabulates_every_check():
    # The README's table of checks lists each row of measures.CHECKS in run
    # order, with its kind and threshold, and a relation and a domain.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in section.splitlines() if line.startswith("| `")]
    assert all(len(row) == 5 and row[1] and row[4] for row in rows)
    assert [(name, kind, None if threshold == "-" else float(threshold)) for name, _, kind, threshold, _ in rows] == [
        (f"`{check.name}`", check.kind, check.threshold) for check in measures.CHECKS]
