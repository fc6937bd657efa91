import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duality import measures, sqds
from duality.errors import DegenerateBranchError, IdentityError, ValidationError
from duality.linalg import rng
from duality.measures import evaluate
from duality.sqds import SqdsForms, figure3_grid, figure4_curve, sqds_instances, write_figure3_csv, write_figure4_csv
from duality.tolerances import XI_ATOL

ROOT_HALF = math.sqrt(0.5)
HALF_PI = math.pi / 2.0
# Every closed form of SqdsForms, by its attribute name.
FORMS = ("s_d_norm", "v_q0", "q", "xi_q", "r_q", "d_q", "v_q", "delta", "chi")


def random_config(stream, seed=42, p_q_cap=0.999) -> tuple:
    """(p_d, v_d0, p_q, phi_ent) drawn from the Philox stream (seed, stream)."""
    gen = rng(seed, stream)
    p_d = gen.uniform(0.0, 1.0)
    v_d0 = gen.uniform(0.0, math.sqrt(max(0.0, 1.0 - p_d * p_d)))
    return float(p_d), float(v_d0), float(gen.uniform(0.0, p_q_cap)), float(gen.uniform(0.0, 2.0 * math.pi))


def random_forms(count, seed) -> SqdsForms:
    """The forms of ``count`` random configurations, one stack."""
    return SqdsForms(*np.array([random_config(stream, seed) for stream in range(count)]).T)


def engine(forms: SqdsForms) -> dict:
    """The engine's columns for the configurations of ``forms``, from one evaluate call."""
    cols, errors = evaluate(*sqds_instances(forms))
    assert errors == {}
    return cols


# --- input checks -----------------------------------------------------------------

def test_forms_reject_super_unit_bloch():
    with pytest.raises(ValidationError, match=r"Bloch norm exceeds one: p_d\^2 \+ v_d0\^2 = 1.28"):
        SqdsForms(p_d=0.8, v_d0=0.8, p_q=0.5, phi_ent=0.0)
    with pytest.raises(ValidationError, match=r"p_q must lie in \[0, 1\]"):
        SqdsForms(p_d=0.0, v_d0=0.5, p_q=1.5, phi_ent=0.0)
    with pytest.raises(ValidationError, match=r"p_d\^2 \+ v_d0\^2\[1, 0\] = 1.28"):
        SqdsForms(p_d=[[0.6], [0.8]], v_d0=[0.8, 0.6], p_q=0.5, phi_ent=0.0)


def test_forms_reject_non_finite_fields():
    good = dict(p_d=0.3, v_d0=0.4, p_q=0.5, phi_ent=1.0)
    for name in good:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                SqdsForms(**{**good, name: value})
            with pytest.raises(ValidationError, match=rf"{name}\[1\] must be finite"):
                SqdsForms(**{**good, name: [good[name], value]})
        # An int or a Fraction beyond the float range, which numpy holds as an object.
        for value in (10 ** 400, Fraction(10 ** 400, 3)):
            with pytest.raises(ValidationError, match=f"{name} must be finite, got a value beyond the float range"):
                SqdsForms(**{**good, name: value})


@pytest.mark.parametrize("name", ["p_d", "v_d0", "p_q", "phi_ent"])
@pytest.mark.parametrize("value", ["0.1", None, np.array(["0.1"]), np.array([True, False]), True, np.bool_(False),
                                   0.1j, np.array([0.1j]), [0.1, [0.2]], [Fraction(1, 2), True],
                                   Decimal("0.1")])
def test_forms_reject_non_numbers_and_bools(name, value):
    good = dict(p_d=0.0, v_d0=0.2, p_q=0.3, phi_ent=0.4)
    # A list names its first bad element.
    with pytest.raises(ValidationError, match=rf"{name}(\[1\])? must be a real number"):
        SqdsForms(**{**good, name: value})


@pytest.mark.parametrize("name", ["p_d", "v_d0", "p_q"])
@pytest.mark.parametrize("value", [1e200, 1.5, -1e-300, -1e200])
def test_forms_range_checks_before_squaring(name, value):
    # A value whose square overflows is rejected by its range, before the Bloch norm is formed.
    good = dict(p_d=0.0, v_d0=0.2, p_q=0.3, phi_ent=0.4)
    with pytest.raises(ValidationError, match=rf"{name} must lie in \[0, 1\]"):
        SqdsForms(**{**good, name: value})
    with pytest.raises(ValidationError, match=re.escape(f"{name}[1] must lie in [0, 1], got {value}")):
        SqdsForms(**{**good, name: [good[name], value, 2.0]})


@pytest.mark.parametrize("shapes", [((2,), (3,), (), ()), ((), (2, 1), (3,), (2, 4)), ((0,), (), (), (2,))])
def test_forms_reject_shapes_that_do_not_broadcast(shapes):
    with pytest.raises(ValidationError, match="must broadcast together, got shapes"):
        SqdsForms(*(np.zeros(shape) for shape in shapes))


def test_forms_accept_integers_numpy_floats_and_arrays():
    forms = SqdsForms(p_d=0, v_d0=np.float64(0.5), p_q=np.int64(1), phi_ent=np.float32(0.25))
    assert (forms.p_q, forms.phi_ent) == (1.0, 0.25)
    assert forms.v_q == 0.0
    # Numbers numpy holds only as objects: a Fraction, an int beyond 64 bits.
    objects = SqdsForms(p_d=0, v_d0=0.5, p_q=Fraction(1, 2), phi_ent=[2 ** 70, Fraction(1, 4)])
    assert objects.p_q == 0.5 and objects.phi_ent.tolist() == [2.0 ** 70, 0.25]
    assert np.array_equal(objects.q, SqdsForms(0.0, 0.5, 0.5, [2.0 ** 70, 0.25]).q)
    fields = (forms.p_d, forms.v_d0, forms.p_q, forms.phi_ent, *(getattr(forms, name) for name in FORMS))
    assert {(np.asarray(a).dtype, np.shape(a)) for a in fields} == {(np.dtype(float), ())}
    stack = SqdsForms(np.array([0.1]), np.array(0.2), [[0.3], [0.4]], range(3))
    # Each form has the shape of the fields it reads; those that read all four have their broadcast shape.
    assert np.broadcast_shapes(*(np.shape(getattr(stack, name)) for name in FORMS)) == stack.chi.shape == (2, 3)


def test_forms_keep_read_only_copies_of_their_fields():
    p_q = np.array([0.2, 0.4])
    forms = SqdsForms(0.0, 0.5, p_q, 1.0)
    p_q[0] = 5.0  # the caller's array changes after the check
    assert forms.p_q.tolist() == [0.2, 0.4]
    assert np.array_equal(forms.delta, SqdsForms(0.0, 0.5, [0.2, 0.4], 1.0).delta)
    for name in ("p_d", "v_d0", "p_q", "phi_ent"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(forms, name)[...] = 0.5


# --- closed forms -----------------------------------------------------------------

def test_quality_examples():
    assert float(SqdsForms(0.0, 0.8, 0.3, 0.0).q) == 0.0
    assert float(SqdsForms(0.0, 1.0, 0.3, HALF_PI).q) == pytest.approx(1.0, abs=1e-15)
    assert float(SqdsForms(0.0, ROOT_HALF, 0.3, HALF_PI).q) == pytest.approx(ROOT_HALF, abs=1e-15)


def test_xi_examples():
    assert float(SqdsForms(0.0, 0.6, 0.0, HALF_PI).xi_q) == pytest.approx(0.6, abs=1e-15)
    xi_q = float(SqdsForms(0.0, ROOT_HALF, ROOT_HALF, HALF_PI).xi_q)  # P^2 = Q^2 = 0.5
    assert xi_q ** 2 == pytest.approx(0.75, abs=1e-15)
    assert float(SqdsForms(0.0, 0.6, 1.0, HALF_PI).xi_q) == pytest.approx(1.0, abs=1e-15)


def test_distinguishability_pure_detecton_equals_xi():
    # Each stream gives one configuration: its angle, p_q and phi, drawn in that order.
    gens = [rng(5, stream) for stream in range(30)]
    angle, p_q, phi = np.array([(g.uniform(0.0, HALF_PI), g.uniform(0.0, 1.0), g.uniform(0.0, 7.0)) for g in gens]).T
    forms = SqdsForms(np.cos(angle), np.sin(angle), p_q, phi)
    assert np.abs(forms.r_q - forms.xi_q).max() <= 1e-12
    assert np.abs(forms.d_q - forms.xi_q).max() <= 1e-12


def test_distinguishability_frozen_point():
    # P_Q^2 = 0.5, V_D0^2 = 0.5, Phi = pi/2, P_D^2 = |s_D|^2 - 0.5
    s_sq = np.array([0.5, 0.625, 0.75, 1.0])
    forms = SqdsForms(np.sqrt(s_sq - 0.5), ROOT_HALF, ROOT_HALF, HALF_PI)
    assert np.abs(forms.d_q ** 2 - (0.5 * s_sq + 0.25)).max() <= 1e-12


def test_distinguishability_bad_marker_limit():
    forms = SqdsForms(p_d=0.0, v_d0=0.0, p_q=0.35, phi_ent=1.0)
    assert float(forms.r_q) == pytest.approx(0.0, abs=1e-15)
    assert float(forms.d_q) == pytest.approx(0.35, abs=1e-15)


def test_visibility_examples():
    forms = SqdsForms(0.3, 0.4, 0.6, 0.0)
    assert float(forms.v_q) == pytest.approx(float(forms.v_q0), abs=1e-15)
    assert float(SqdsForms(0.0, 0.9, 0.6, HALF_PI).v_q) == pytest.approx(0.0, abs=1e-15)
    v_q = float(SqdsForms(p_d=math.sqrt(0.25), v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI).v_q)
    assert v_q ** 2 == pytest.approx(0.5 * (0.75 - 0.5), abs=1e-12)


def test_delta_maximum_point():
    forms = SqdsForms(p_d=0.0, v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)
    assert float(forms.delta) == pytest.approx(0.25, abs=1e-12)


def test_delta_vanishes_at_pure_preparation_and_balance():
    assert float(SqdsForms(p_d=0.6, v_d0=0.8, p_q=0.4, phi_ent=1.0).delta) == pytest.approx(0.0, abs=1e-12)
    assert float(SqdsForms(p_d=0.2, v_d0=0.5, p_q=0.0, phi_ent=1.0).delta) == pytest.approx(0.0, abs=1e-15)


def test_delta_branches_agree_at_tie():
    # P_D = 0, sin Phi = 1, P_Q = |s_D| puts P exactly at R
    t = np.array([0.3, 0.5, 0.7])
    assert np.abs(SqdsForms(p_d=0.0, v_d0=t, p_q=t, phi_ent=HALF_PI).delta - t * t * (1.0 - t * t)).max() <= 1e-12


def test_chi_trivial_cases():
    # pure detecton along z: no coherence, no quality, chi = 1
    assert float(SqdsForms(p_d=1.0, v_d0=0.0, p_q=0.5, phi_ent=1.0).chi) == pytest.approx(1.0, abs=1e-12)
    assert float(SqdsForms(p_d=0.3, v_d0=0.4, p_q=0.0, phi_ent=1.0).chi) == pytest.approx(1.0, abs=1e-12)


def test_chi_frozen_point():
    forms = SqdsForms(p_d=0.0, v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)
    assert float(forms.chi) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_chi_equals_one_minus_delta_over_xi_sq():
    forms = random_forms(400, seed=6)
    informed = forms.xi_q > 1e-8
    assert informed.sum() == 400
    assert np.abs(forms.chi - (1.0 - forms.delta / forms.xi_q ** 2))[informed].max() <= 1e-10


def test_chi_degenerate_xi_convention():
    # Xi at or below SQDS_XI_ATOL carries no way information, and chi = 1 by
    # convention there.  Xi >= P_Q, so such a config has P_Q within the same
    # tolerance of zero, but not necessarily zero: it is valid, not inconsistent.
    assert SqdsForms(p_d=0.0, v_d0=0.0, p_q=[0.0, 1e-16, 5e-16, 1e-15], phi_ent=0.3).chi.tolist() == [1.0] * 4


def test_d_is_the_larger_of_p_and_r_and_delta_is_bounded():
    forms = random_forms(400, seed=0)
    assert np.array_equal(forms.d_q, np.maximum(forms.p_q, forms.r_q))
    assert 0.0 <= forms.delta.min() and forms.delta.max() <= 0.25 + 1e-12


# --- a stack against each configuration alone --------------------------------------

GRID = np.linspace(0.0, 1.0, sqds.FIGURE3_RESOLUTION)


@st.composite
def configs(draw):
    p_d = draw(st.floats(0.0, 1.0))
    v_d0 = draw(st.floats(0.0, math.sqrt(1.0 - p_d * p_d)))
    return p_d, v_d0, draw(st.floats(0.0, 1.0)), draw(st.floats(-10.0, 10.0))


@st.composite
def grid_points(draw):
    # A point of the fig3 grid; on its diagonal P_Q = |s_D| = R_Q, so the two
    # branches tie there, the corner (0, 0) among them.
    s = float(GRID[draw(st.integers(0, sqds.FIGURE3_RESOLUTION - 1))])
    p = draw(st.one_of(st.just(s), st.sampled_from(GRID.tolist())))
    return 0.0, s, p, math.pi / 2.0


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(cfgs=st.lists(st.one_of(configs(), grid_points(), st.just((0.0, 0.0, 0.0, math.pi / 2.0))),
                     min_size=1, max_size=8))
def test_stack_closed_forms_equal_each_config_alone(cfgs):
    stack = SqdsForms(*np.array(cfgs).T)
    for name in FORMS:
        try:
            values = [getattr(SqdsForms(*cfg), name) for cfg in cfgs]
        except IdentityError:  # the stack fails where a member does
            with pytest.raises(IdentityError):
                getattr(stack, name)
            continue
        assert {np.shape(value) for value in values} == {()}
        assert bits(getattr(stack, name)) == bits(values), name


def test_figure_grids_build_one_forms_each(monkeypatch):
    built = []
    init = SqdsForms.__init__
    monkeypatch.setattr(SqdsForms, "__init__", lambda forms, *fields: built.append(
        np.broadcast_shapes(*map(np.shape, fields))) or init(forms, *fields))
    figure3_grid()
    figure4_curve()
    assert built == [(sqds.FIGURE3_RESOLUTION ** 2,), (sqds.FIGURE4_SAMPLES,)]


def test_grid_raises_the_first_tied_disagreement_in_grid_order(monkeypatch):
    # Wider tolerances make near-diagonal points ties whose branches disagree;
    # the grid must raise what a loop over its points, |s_D| outermost, raises first.
    monkeypatch.setattr(sqds, "TIE_ATOL", 0.02)
    monkeypatch.setattr(sqds, "BRANCH_AGREE_ATOL", 1e-3)
    with pytest.raises(IdentityError) as alone:
        for s in GRID:
            for p in GRID:
                SqdsForms(0.0, float(s), float(p), math.pi / 2.0).delta
    with pytest.raises(IdentityError) as grid:
        figure3_grid()
    assert str(grid.value) == str(alone.value)
    assert "0.00039936 vs 0.0015993600000000002" in str(alone.value)  # not the first tie, at the corner


def test_figure_points_equal_each_config_alone():
    rows = figure3_grid()
    for s, p, delta in rows[::97]:
        assert bits(delta) == bits(SqdsForms(0.0, float(s), float(p), math.pi / 2.0).delta)
    for s, v_d_sq, v_xi_sq, v_q_sq in figure4_curve()[::10]:
        forms = SqdsForms(math.sqrt(max(0.0, s ** 2 - 0.5)), math.sqrt(0.5), math.sqrt(0.5), math.pi / 2.0)
        assert bits([v_d_sq, v_xi_sq, v_q_sq]) == bits(
            [1.0 - float(forms.d_q) ** 2, 1.0 - float(forms.xi_q) ** 2, float(forms.v_q) ** 2])


# --- grids and invariants ------------------------------------------------------------

def test_sum_rule_grid():
    # Q^2 + (V_Q/V_Q0)^2 identity and bound over the detecton parameter box,
    # as one evaluation of the array forms that each config's values are.
    values = np.linspace(0.0, 1.0, 50)
    p_d, v_d0, phi = np.meshgrid(values, values, np.linspace(0.0, 2.0 * math.pi, 50), indexing="ij")
    inside = p_d * p_d + v_d0 * v_d0 <= 1.0
    p_d, v_d0, phi = p_d[inside], v_d0[inside], phi[inside]
    forms = SqdsForms(p_d, v_d0, 0.0, phi)
    q_sq = forms.q * forms.q
    ratio_sq = np.cos(phi) ** 2 + p_d * p_d * np.sin(phi) ** 2
    rhs = forms.s_d_norm ** 2 * np.sin(phi) ** 2 + np.cos(phi) ** 2
    assert p_d.size == 96_550  # the points of the loop over the box
    assert np.abs(q_sq + ratio_sq - rhs).max() <= 1e-10
    assert (q_sq + ratio_sq).max() <= 1.0 + 1e-10


@settings(deadline=None, max_examples=150)
@given(stream=st.integers(0, 10_000), p_q=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_visibility_xi_bound(stream, p_q):
    p_d, v_d0, _, phi_ent = random_config(stream, seed=7)
    forms = SqdsForms(p_d=p_d, v_d0=v_d0, p_q=p_q, phi_ent=phi_ent)
    assert float(forms.v_q) ** 2 + float(forms.xi_q) ** 2 <= 1.0 + 1e-9


def test_xi_equals_d_on_all_boundary_faces():
    gen = rng(8)
    faces = []
    for _ in range(60):
        a, b = float(gen.uniform(0, 1)), float(gen.uniform(0, 2 * math.pi))
        half = math.sqrt(max(0.0, 1 - a * a))
        faces += [
            (a, half, b / (2 * math.pi), 0.0),                     # Q = 0 (no coupling)
            (a, 0.0, 0.7, b),                                      # Q = 0 (no coherence)
            (0.0, 1.0, float(gen.uniform(0, 1)), HALF_PI),         # Q = 1
            (a, half, 0.0, b),                                     # P_Q = 0
            (a, half, 1.0, b),                                     # P_Q = 1
            (0.0, 0.0, 0.4, b),                                    # |s_D| = 0
            (a, half, 0.55, b),                                    # |s_D| = 1
        ]
    forms = SqdsForms(*np.array(faces).T)
    assert np.abs(forms.xi_q - forms.d_q).max() <= 1e-9


# --- generic-engine bridge -------------------------------------------------------------

def test_instances_maximal_entanglement():
    cols = engine(SqdsForms(p_d=0.0, v_d0=1.0, p_q=0.0, phi_ent=HALF_PI))
    for name, value in (("v", 0.0), ("q", 1.0), ("d", 1.0), ("xi", 1.0)):
        assert cols[name] == pytest.approx([value], abs=1e-10), name


def test_instances_no_coupling():
    forms = SqdsForms(p_d=0.2, v_d0=0.5, p_q=0.6, phi_ent=0.0)
    cols = engine(forms)
    assert cols["q"] == pytest.approx([0.0], abs=1e-10)
    assert cols["v"] == pytest.approx([float(forms.v_q0)], abs=1e-10)


def test_instances_figure4_point():
    forms = SqdsForms(p_d=0.5, v_d0=ROOT_HALF, p_q=ROOT_HALF, phi_ent=HALF_PI)  # |s_D|^2 = 0.75
    d_sq = engine(forms)["d"] ** 2
    assert d_sq == pytest.approx([0.5 * 0.75 + 0.25], abs=1e-10)
    assert d_sq == pytest.approx([float(forms.d_q) ** 2], abs=1e-10)


def test_instances_follow_the_broadcast_shape_in_c_order():
    forms = SqdsForms(p_d=[[0.0], [0.6]], v_d0=0.5, p_q=[0.1, 0.5, 0.9], phi_ent=1.0)
    cols = engine(forms)
    assert len(cols["p"]) == 6
    for name, closed in (("p", forms.p_q), ("v", forms.v_q), ("d", forms.d_q)):
        assert np.abs(cols[name].reshape(2, 3) - closed).max() <= 1e-12, name


def test_dual_route_agreement_sample():
    forms = random_forms(200, seed=9)
    cols = engine(forms)
    for name, closed in (("p", forms.p_q), ("v", forms.v_q), ("q", forms.q), ("d", forms.d_q)):
        assert np.abs(cols[name] - closed).max() <= 1e-9, name
    # The stringency ratio by the engine's D^2/Xi^2, at every configuration.
    assert np.abs(cols["chi"] - forms.chi).max() <= 1e-12


def test_generic_instances_pass_the_stringency_gate():
    slack = engine(random_forms(200, seed=10))["slack_main"]
    assert not np.isnan(slack).any()
    assert slack.min() >= -1e-9


def test_figure3_grid_through_the_engine(monkeypatch):
    # The whole fig3 grid, through the engine as one stack in one pass.  P_Q = 1
    # sends the quanton one way only, so the other way's marker state is
    # undefined: each point of that row is recorded, and NaN in every column.
    calls, branch_spectra = [], measures.branch_spectra

    def counted(k, decompose, failed=None):
        calls.append(len(k.s))
        return branch_spectra(k, decompose, failed)

    monkeypatch.setattr(measures, "branch_spectra", counted)
    rows = figure3_grid()
    cols, errors = evaluate(*sqds_instances(SqdsForms(0.0, rows[:, 0], rows[:, 1], math.pi / 2.0)))
    degenerate = np.flatnonzero(rows[:, 1] == 1.0)
    assert len(degenerate) == sqds.FIGURE3_RESOLUTION and list(errors) == degenerate.tolist()
    assert {type(exc) for exc in errors.values()} == {DegenerateBranchError}
    assert calls == [len(rows)]
    assert all(np.isnan(column[degenerate]).all() for name, column in cols.items() if name not in ("s", "phi"))
    kept = rows[:, 1] < 1.0
    forms = SqdsForms(0.0, rows[kept, 0], rows[kept, 1], math.pi / 2.0)
    cols = {name: column[kept] for name, column in cols.items()}
    # The other points have the bits they have as a stack of their own.
    alone, _ = evaluate(*sqds_instances(forms))
    assert {name: column.tobytes() for name, column in alone.items()} == {
        name: column.tobytes() for name, column in cols.items()}
    for name, closed in (("v", forms.v_q), ("p", forms.p_q), ("q", forms.q), ("d", forms.d_q), ("xi", forms.xi_q),
                         ("xi_minus_d", forms.xi_q - forms.d_q)):
        assert np.abs(cols[name] - closed).max() <= 1e-12, name
    assert np.abs(cols["xi"] ** 2 - cols["d"] ** 2 - rows[kept, 2]).max() <= 1e-12  # Delta = Xi^2 - D^2
    # The engine forms no chi where its Xi is zero: only at the corner |s_D| = P_Q = 0.
    uninformed = cols["xi"] <= XI_ATOL
    assert np.array_equal(np.isnan(cols["chi"]), uninformed) and uninformed.sum() == 1
    assert np.abs(cols["chi"] - forms.chi)[~uninformed].max() <= 1e-12


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
    fig3 = (tmp_path / "fig3.csv").read_text(encoding="utf-8").splitlines()
    fig4 = (tmp_path / "fig4.csv").read_text(encoding="utf-8").splitlines()
    assert fig3[0] == "s_d_norm,p_q,delta"
    assert fig4[0] == "s_d_norm,v_d_sq,v_xi_sq,v_q_sq"
    assert len(fig3) == 1 + 101 * 101
    assert len(fig4) == 1 + 201
    # 12-significant-digit formatting round-trips through float parsing
    value = float(fig4[-1].split(",")[1])
    assert value == pytest.approx(0.25, abs=1e-10)
