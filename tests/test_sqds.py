import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duality import sqds
from duality.errors import IdentityError, ValidationError
from duality.linalg import rng
from duality.measures import hierarchy_report, xi
from duality.sqds import (
    SqdsConfig,
    figure3_grid,
    figure4_curve,
    sqds_chi,
    sqds_delta,
    sqds_distinguishability,
    sqds_quality,
    sqds_report,
    sqds_to_generic,
    sqds_visibility,
    sqds_xi,
    write_figure3_csv,
    write_figure4_csv,
)

ROOT_HALF = math.sqrt(0.5)
HALF_PI = math.pi / 2.0


def random_config(stream, seed=42, p_q_cap=0.999) -> SqdsConfig:
    gen = rng(seed, stream)
    p_d = gen.uniform(0.0, 1.0)
    v_d0 = gen.uniform(0.0, math.sqrt(max(0.0, 1.0 - p_d * p_d)))
    return SqdsConfig(p_d=float(p_d), v_d0=float(v_d0),
                      p_q=float(gen.uniform(0.0, p_q_cap)),
                      phi_ent=float(gen.uniform(0.0, 2.0 * math.pi)))


# --- config validation ------------------------------------------------------------

def test_config_rejects_super_unit_bloch():
    with pytest.raises(ValidationError):
        SqdsConfig(p_d=0.8, v_d0=0.8, p_q=0.5, phi_ent=0.0)
    with pytest.raises(ValidationError):
        SqdsConfig(p_d=0.0, v_d0=0.5, p_q=1.5, phi_ent=0.0)


def test_config_rejects_non_finite_fields():
    good = dict(p_d=0.3, v_d0=0.4, p_q=0.5, phi_ent=1.0)
    for name in good:
        for value in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                SqdsConfig(**{**good, name: value})


@pytest.mark.parametrize("name", ["p_d", "v_d0", "p_q", "phi_ent"])
@pytest.mark.parametrize("value", ["0.1", None, np.array([0.1]), np.array(0.1), True, np.bool_(False), 0.1j,
                                   10 ** 400])
def test_config_rejects_non_numbers_and_bools(name, value):
    good = dict(p_d=0.0, v_d0=0.2, p_q=0.3, phi_ent=0.4)
    with pytest.raises(ValidationError, match=f"{name} must be a finite real number"):
        SqdsConfig(**{**good, name: value})


@pytest.mark.parametrize("name", ["p_d", "v_d0", "p_q"])
@pytest.mark.parametrize("value", [1e200, 1.5, -1e-300, -1e200])
def test_config_range_checks_before_squaring(name, value):
    # A value whose square overflows is rejected by its range, before the Bloch norm is formed.
    good = dict(p_d=0.0, v_d0=0.2, p_q=0.3, phi_ent=0.4)
    with pytest.raises(ValidationError, match=rf"{name} must lie in \[0, 1\]"):
        SqdsConfig(**{**good, name: value})


def test_config_accepts_integers_and_numpy_floats():
    # Each field is stored as a Python float, so no numpy type reaches a result.
    cfg = SqdsConfig(p_d=0, v_d0=np.float64(0.5), p_q=np.int64(1), phi_ent=np.float32(0.25))
    assert [type(getattr(cfg, name)) for name in ("p_d", "v_d0", "p_q", "phi_ent")] == [float] * 4
    assert (cfg.p_q, cfg.phi_ent) == (1.0, 0.25)
    assert sqds_visibility(cfg) == 0.0
    assert {type(value) for value in sqds_report(cfg).to_dict().values()} == {float}


# --- closed forms -----------------------------------------------------------------

def test_quality_examples():
    assert sqds_quality(SqdsConfig(0.0, 0.8, 0.3, 0.0)) == 0.0
    assert sqds_quality(SqdsConfig(0.0, 1.0, 0.3, HALF_PI)) == pytest.approx(1.0, abs=1e-15)
    assert sqds_quality(SqdsConfig(0.0, ROOT_HALF, 0.3, HALF_PI)) == pytest.approx(ROOT_HALF, abs=1e-15)


def test_xi_examples():
    assert sqds_xi(SqdsConfig(0.0, 0.6, 0.0, HALF_PI)) == pytest.approx(0.6, abs=1e-15)
    cfg = SqdsConfig(0.0, ROOT_HALF, ROOT_HALF, HALF_PI)  # P^2 = Q^2 = 0.5
    assert sqds_xi(cfg) ** 2 == pytest.approx(0.75, abs=1e-15)
    assert sqds_xi(SqdsConfig(0.0, 0.6, 1.0, HALF_PI)) == pytest.approx(1.0, abs=1e-15)


def test_distinguishability_pure_detecton_equals_xi():
    for stream in range(30):
        gen = rng(5, stream)
        angle = gen.uniform(0.0, HALF_PI)
        cfg = SqdsConfig(p_d=math.cos(angle), v_d0=math.sin(angle),
                         p_q=float(gen.uniform(0.0, 1.0)), phi_ent=float(gen.uniform(0.0, 7.0)))
        r_q, d_q = sqds_distinguishability(cfg)
        assert r_q == pytest.approx(sqds_xi(cfg), abs=1e-12)
        assert d_q == pytest.approx(sqds_xi(cfg), abs=1e-12)


def test_distinguishability_frozen_point():
    # P_Q^2 = 0.5, V_D0^2 = 0.5, Phi = pi/2, P_D^2 = |s_D|^2 - 0.5
    for s_sq in (0.5, 0.625, 0.75, 1.0):
        cfg = SqdsConfig(p_d=math.sqrt(s_sq - 0.5), v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)
        _, d_q = sqds_distinguishability(cfg)
        assert d_q ** 2 == pytest.approx(0.5 * s_sq + 0.25, abs=1e-12)


def test_distinguishability_bad_marker_limit():
    cfg = SqdsConfig(p_d=0.0, v_d0=0.0, p_q=0.35, phi_ent=1.0)
    r_q, d_q = sqds_distinguishability(cfg)
    assert r_q == pytest.approx(0.0, abs=1e-15)
    assert d_q == pytest.approx(0.35, abs=1e-15)


def test_visibility_examples():
    cfg = SqdsConfig(0.3, 0.4, 0.6, 0.0)
    assert sqds_visibility(cfg) == pytest.approx(cfg.v_q0, abs=1e-15)
    assert sqds_visibility(SqdsConfig(0.0, 0.9, 0.6, HALF_PI)) == pytest.approx(0.0, abs=1e-15)
    cfg = SqdsConfig(p_d=math.sqrt(0.25), v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)
    assert sqds_visibility(cfg) ** 2 == pytest.approx(0.5 * (0.75 - 0.5), abs=1e-12)


def test_delta_maximum_point():
    cfg = SqdsConfig(p_d=0.0, v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)
    assert sqds_delta(cfg) == pytest.approx(0.25, abs=1e-12)


def test_delta_vanishes_at_pure_preparation_and_balance():
    assert sqds_delta(SqdsConfig(p_d=0.6, v_d0=0.8, p_q=0.4, phi_ent=1.0)) == pytest.approx(0.0, abs=1e-12)
    assert sqds_delta(SqdsConfig(p_d=0.2, v_d0=0.5, p_q=0.0, phi_ent=1.0)) == pytest.approx(0.0, abs=1e-15)


def test_delta_branches_agree_at_tie():
    # P_D = 0, sin Phi = 1, P_Q = |s_D| puts P exactly at R
    for t in (0.3, 0.5, 0.7):
        cfg = SqdsConfig(p_d=0.0, v_d0=t, p_q=t, phi_ent=HALF_PI)
        assert sqds_delta(cfg) == pytest.approx(t * t * (1.0 - t * t), abs=1e-12)


def test_chi_trivial_cases():
    # pure detecton along z: no coherence, no quality, chi = 1
    assert sqds_chi(SqdsConfig(p_d=1.0, v_d0=0.0, p_q=0.5, phi_ent=1.0)) == pytest.approx(1.0, abs=1e-12)
    assert sqds_chi(SqdsConfig(p_d=0.3, v_d0=0.4, p_q=0.0, phi_ent=1.0)) == pytest.approx(1.0, abs=1e-12)


def test_chi_frozen_point_matches_engine_value():
    cfg = SqdsConfig(p_d=0.0, v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)
    chi = sqds_chi(cfg)
    assert chi == pytest.approx(2.0 / 3.0, abs=1e-12)
    rep = hierarchy_report(sqds_to_generic(cfg))
    assert chi == pytest.approx(rep.d ** 2 / rep.xi ** 2, abs=1e-12)


def test_chi_equals_one_minus_delta_over_xi_sq():
    for stream in range(400):
        cfg = random_config(stream, seed=6)
        xi_q = sqds_xi(cfg)
        if xi_q <= 1e-8:
            continue
        assert sqds_chi(cfg) == pytest.approx(1.0 - sqds_delta(cfg) / xi_q ** 2, abs=1e-10)


def test_chi_degenerate_xi_convention():
    # Xi at or below SQDS_XI_ATOL carries no way information, and chi = 1 by
    # convention there.  Xi >= P_Q, so such a config has P_Q within the same
    # tolerance of zero, but not necessarily zero: it is valid, not inconsistent.
    for p_q in (0.0, 1e-16, 5e-16, 1e-15):
        cfg = SqdsConfig(p_d=0.0, v_d0=0.0, p_q=p_q, phi_ent=0.3)
        assert sqds_chi(cfg) == 1.0
        assert sqds_report(cfg).chi == 1.0


def test_report_bundles_everything():
    cfg = random_config(0)
    rep = sqds_report(cfg)
    assert rep.d_q == max(cfg.p_q, rep.r_q)
    assert 0.0 <= rep.delta <= 0.25 + 1e-12
    data = rep.to_dict()
    assert list(data) == ["q", "xi_q", "r_q", "d_q", "v_q", "delta", "chi"]
    assert list(data.values()) == [sqds_quality(cfg), sqds_xi(cfg), *sqds_distinguishability(cfg),
                                   sqds_visibility(cfg), sqds_delta(cfg), sqds_chi(cfg)]


# --- a stack against each configuration alone --------------------------------------

# Each public closed form of one configuration, by the name of its array form.
ALONE = {
    "s_d_norm": lambda cfg: cfg.s_d_norm,
    "v_q0": lambda cfg: cfg.v_q0,
    "q": sqds_quality,
    "xi_q": sqds_xi,
    "r_q": lambda cfg: sqds_distinguishability(cfg)[0],
    "d_q": lambda cfg: sqds_distinguishability(cfg)[1],
    "v_q": sqds_visibility,
    "delta": sqds_delta,
    "chi": sqds_chi,
}
GRID = np.linspace(0.0, 1.0, sqds.FIGURE3_RESOLUTION)


@st.composite
def configs(draw):
    p_d = draw(st.floats(0.0, 1.0))
    v_d0 = draw(st.floats(0.0, math.sqrt(1.0 - p_d * p_d)))
    return SqdsConfig(p_d, v_d0, draw(st.floats(0.0, 1.0)), draw(st.floats(-10.0, 10.0)))


@st.composite
def grid_points(draw):
    # A point of the fig3 grid; on its diagonal P_Q = |s_D| = R_Q, so the two
    # branches tie there, the corner (0, 0) among them.
    s = float(GRID[draw(st.integers(0, sqds.FIGURE3_RESOLUTION - 1))])
    p = draw(st.one_of(st.just(s), st.sampled_from(GRID.tolist())))
    return SqdsConfig(0.0, s, p, math.pi / 2.0)


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(cfgs=st.lists(st.one_of(configs(), grid_points(), st.just(SqdsConfig(0.0, 0.0, 0.0, math.pi / 2.0))),
                     min_size=1, max_size=8))
def test_stack_closed_forms_equal_each_config_alone(cfgs):
    stack = sqds._Forms(*(np.array([getattr(cfg, name) for cfg in cfgs])
                          for name in ("p_d", "v_d0", "p_q", "phi_ent")))
    for name, alone in ALONE.items():
        try:
            values = [alone(cfg) for cfg in cfgs]
        except IdentityError:  # the stack fails where a member does
            with pytest.raises(IdentityError):
                getattr(stack, name)
            continue
        assert {type(value) for value in values} == {float}
        assert bits(getattr(stack, name)) == bits(values), name


def test_figure_grids_build_no_config_per_point(monkeypatch):
    built = []
    check = SqdsConfig.__post_init__
    monkeypatch.setattr(SqdsConfig, "__post_init__", lambda cfg: built.append(cfg) or check(cfg))
    figure3_grid()
    figure4_curve()
    assert built == []
    SqdsConfig(0.0, 0.0, 0.0, 0.0)
    assert len(built) == 1  # the count sees a construction


def test_grid_raises_the_first_tied_disagreement_in_grid_order(monkeypatch):
    # Wider tolerances make near-diagonal points ties whose branches disagree;
    # the grid must raise what a loop over its points, |s_D| outermost, raises first.
    monkeypatch.setattr(sqds, "TIE_ATOL", 0.02)
    monkeypatch.setattr(sqds, "BRANCH_AGREE_ATOL", 1e-3)
    with pytest.raises(IdentityError) as alone:
        for s in GRID:
            for p in GRID:
                sqds_delta(SqdsConfig(0.0, float(s), float(p), math.pi / 2.0))
    with pytest.raises(IdentityError) as grid:
        figure3_grid()
    assert str(grid.value) == str(alone.value)
    assert "0.00039936 vs 0.0015993600000000002" in str(alone.value)  # not the first tie, at the corner


def test_figure_points_equal_each_config_alone():
    rows = figure3_grid()
    for s, p, delta in rows[::97]:
        assert bits(delta) == bits(sqds_delta(SqdsConfig(0.0, float(s), float(p), math.pi / 2.0)))
    for s, v_d_sq, v_xi_sq, v_q_sq in figure4_curve()[::10]:
        cfg = SqdsConfig(math.sqrt(max(0.0, s ** 2 - 0.5)), math.sqrt(0.5), math.sqrt(0.5), math.pi / 2.0)
        assert bits([v_d_sq, v_xi_sq, v_q_sq]) == bits(
            [1.0 - sqds_distinguishability(cfg)[1] ** 2, 1.0 - sqds_xi(cfg) ** 2, sqds_visibility(cfg) ** 2])


# --- grids and invariants ------------------------------------------------------------

def test_sum_rule_grid():
    # Q^2 + (V_Q/V_Q0)^2 identity and bound over the detecton parameter box,
    # as one evaluation of the array forms that each config's values are.
    values = np.linspace(0.0, 1.0, 50)
    p_d, v_d0, phi = np.meshgrid(values, values, np.linspace(0.0, 2.0 * math.pi, 50), indexing="ij")
    inside = p_d * p_d + v_d0 * v_d0 <= 1.0
    p_d, v_d0, phi = p_d[inside], v_d0[inside], phi[inside]
    forms = sqds._Forms(p_d, v_d0, 0.0, phi)
    q_sq = forms.q * forms.q
    ratio_sq = np.cos(phi) ** 2 + p_d * p_d * np.sin(phi) ** 2
    rhs = forms.s_d_norm ** 2 * np.sin(phi) ** 2 + np.cos(phi) ** 2
    assert p_d.size == 96_550  # the points of the loop over the box
    assert np.abs(q_sq + ratio_sq - rhs).max() <= 1e-10
    assert (q_sq + ratio_sq).max() <= 1.0 + 1e-10


@settings(deadline=None, max_examples=150)
@given(stream=st.integers(0, 10_000), p_q=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_visibility_xi_bound(stream, p_q):
    base = random_config(stream, seed=7)
    cfg = SqdsConfig(p_d=base.p_d, v_d0=base.v_d0, p_q=p_q, phi_ent=base.phi_ent)
    assert sqds_visibility(cfg) ** 2 + sqds_xi(cfg) ** 2 <= 1.0 + 1e-9


def test_xi_equals_d_on_all_boundary_faces():
    gen = rng(8)
    for _ in range(60):
        a, b = float(gen.uniform(0, 1)), float(gen.uniform(0, 2 * math.pi))
        half = math.sqrt(max(0.0, 1 - a * a))
        faces = [
            SqdsConfig(p_d=a, v_d0=half, p_q=b / (2 * math.pi), phi_ent=0.0),      # Q = 0 (no coupling)
            SqdsConfig(p_d=a, v_d0=0.0, p_q=0.7, phi_ent=b),                        # Q = 0 (no coherence)
            SqdsConfig(p_d=0.0, v_d0=1.0, p_q=float(gen.uniform(0, 1)), phi_ent=HALF_PI),  # Q = 1
            SqdsConfig(p_d=a, v_d0=half, p_q=0.0, phi_ent=b),                       # P_Q = 0
            SqdsConfig(p_d=a, v_d0=half, p_q=1.0, phi_ent=b),                       # P_Q = 1
            SqdsConfig(p_d=0.0, v_d0=0.0, p_q=0.4, phi_ent=b),                      # |s_D| = 0
            SqdsConfig(p_d=a, v_d0=half, p_q=0.55, phi_ent=b),                      # |s_D| = 1
        ]
        for cfg in faces:
            _, d_q = sqds_distinguishability(cfg)
            assert abs(sqds_xi(cfg) - d_q) <= 1e-9


# --- generic-engine bridge -------------------------------------------------------------

def test_to_generic_maximal_entanglement():
    cfg = SqdsConfig(p_d=0.0, v_d0=1.0, p_q=0.0, phi_ent=HALF_PI)
    rep = hierarchy_report(sqds_to_generic(cfg))
    assert rep.v == pytest.approx(0.0, abs=1e-10)
    assert rep.q == pytest.approx(1.0, abs=1e-10)
    assert rep.d == pytest.approx(1.0, abs=1e-10)
    assert rep.xi == pytest.approx(1.0, abs=1e-10)


def test_to_generic_no_coupling():
    cfg = SqdsConfig(p_d=0.2, v_d0=0.5, p_q=0.6, phi_ent=0.0)
    rep = hierarchy_report(sqds_to_generic(cfg))
    assert rep.q == pytest.approx(0.0, abs=1e-10)
    assert rep.v == pytest.approx(cfg.v_q0, abs=1e-10)


def test_to_generic_figure4_point():
    cfg = SqdsConfig(p_d=0.5, v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)  # |s_D|^2 = 0.75
    rep = hierarchy_report(sqds_to_generic(cfg))
    assert rep.d ** 2 == pytest.approx(0.5 * 0.75 + 0.25, abs=1e-10)
    _, d_q = sqds_distinguishability(cfg)
    assert d_q ** 2 == pytest.approx(rep.d ** 2, abs=1e-10)


def test_dual_route_agreement_sample():
    for stream in range(200):
        cfg = random_config(stream, seed=9)
        rep = hierarchy_report(sqds_to_generic(cfg))
        assert abs(rep.p - cfg.p_q) <= 1e-9
        assert abs(rep.v - sqds_visibility(cfg)) <= 1e-9
        assert abs(rep.q - sqds_quality(cfg)) <= 1e-9
        assert abs(rep.d - sqds_distinguishability(cfg)[1]) <= 1e-9


def test_generic_instances_pass_the_stringency_gate():
    for stream in range(20):
        rep = hierarchy_report(sqds_to_generic(random_config(stream, seed=10)))
        assert "main" in rep.slacks
        assert rep.slacks["main"] >= -1e-9


# --- figure data -----------------------------------------------------------------------

def test_figure3_grid_shape_and_maximum():
    rows = figure3_grid()
    assert rows.shape == (101 * 101, 3)
    best = rows[rows[:, 2].argmax()]
    assert abs(best[2] - 0.25) <= 1e-4
    assert abs(best[0] - ROOT_HALF) <= 0.01
    assert abs(best[1] - ROOT_HALF) <= 0.01


def test_figure3_boundary_edges_vanish():
    rows = figure3_grid()
    on_edge = (np.isin(rows[:, 0], (0.0, 1.0)) | np.isin(rows[:, 1], (0.0, 1.0)))
    assert np.abs(rows[on_edge, 2]).max() <= 1e-10


def test_figure4_curves_match_closed_forms():
    rows = figure4_curve()
    s_sq = rows[:, 0] ** 2
    assert np.abs(rows[:, 2] - 0.25).max() <= 1e-10                 # V_Xi^2 constant
    assert np.abs(rows[:, 1] - (0.75 - 0.5 * s_sq)).max() <= 1e-10  # V_D^2
    assert np.abs(rows[:, 3] - (0.5 * s_sq - 0.25)).max() <= 1e-10  # V_Q^2
    assert np.all(rows[:, 3] <= rows[:, 2] + 1e-12)
    assert np.all(rows[:, 2] <= rows[:, 1] + 1e-12)


def test_figure4_endpoint():
    rows = figure4_curve()
    assert rows[-1, 0] == pytest.approx(1.0, abs=0)
    assert rows[-1, 1] == pytest.approx(0.25, abs=1e-12)
    assert rows[-1, 2] == pytest.approx(0.25, abs=1e-12)
    assert rows[-1, 3] == pytest.approx(0.25, abs=1e-12)


def test_csv_writers(tmp_path):
    write_figure3_csv(tmp_path / "fig3.csv")
    write_figure4_csv(tmp_path / "fig4.csv")
    fig3 = (tmp_path / "fig3.csv").read_text().splitlines()
    fig4 = (tmp_path / "fig4.csv").read_text().splitlines()
    assert fig3[0] == "s_d_norm,p_q,delta"
    assert fig4[0] == "s_d_norm,v_d_sq,v_xi_sq,v_q_sq"
    assert len(fig3) == 1 + 101 * 101
    assert len(fig4) == 1 + 201
    # 12-significant-digit formatting round-trips through float parsing
    value = float(fig4[-1].split(",")[1])
    assert value == pytest.approx(0.25, abs=1e-10)
