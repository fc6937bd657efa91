import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    conditional_states_from_final,
    final_state,
    haar_random_unitary,
    matrix_from_pairs,
    random_density,
    reduced_quanton_state,
    upper_port_probability,
)

from duality import interferometer, linalg
from duality.errors import DegenerateBranchError, ValidationError
from duality.interferometer import (
    InterferometerInstance,
    WwmBlocks,
    assemble_global_unitary,
    conditional_wwm_states,
    contrast_factors,
    evolve,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
    instance_from_dict,
    matrix_to_pairs,
    validate_instances,
    validate_unitarity,
)
from duality.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, rng
from duality.measures import hierarchy_report
from duality.sweep import generate_instance
from duality.tolerances import VALIDATION_ATOL

I2 = np.eye(2, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


# --- independent oracle: term-by-term final-state expansion --------------------

def final_state_by_expansion(inst: InterferometerInstance) -> np.ndarray:
    """Final joint state assembled term by term from the per-branch expansion,
    without ever forming the joint unitary or conjugating by the optics."""

    def branch(va, vb):
        rho = inst.rho_d0
        phase = np.exp(-1j * inst.phi)
        return (np.kron((I2 + SIGMA_X) / 4.0, va.conj().T @ rho @ va)
                + np.kron((I2 - SIGMA_X) / 4.0, vb.conj().T @ rho @ vb)
                + np.kron((-SIGMA_Z + 1j * SIGMA_Y) / 4.0, va.conj().T @ rho @ vb) * phase
                - np.kron((SIGMA_Z + 1j * SIGMA_Y) / 4.0, vb.conj().T @ rho @ va) / phase)

    b = inst.blocks
    up = branch(np.asarray(b.vpp), np.asarray(b.vpm))
    down = branch(-np.asarray(b.vmp), np.asarray(b.vmm))
    return (1.0 + inst.s) / 2.0 * up + (1.0 - inst.s) / 2.0 * down


ORACLE_CLASSES = [(block, wwm, s_class)
                  for block in ("unitary_pair", "general_unitary", "tilted_pair")
                  for wwm in ("pure", "mixed")
                  for s_class in ("s_pure", "s_mixed")]


def oracle_instances(count=84, seed=555):
    """Instances cycling through every block, marker and inversion class and
    every marker dimension 2..8 (84 instances cover each pairing once)."""
    for stream in range(count):
        block, wwm, s_class = ORACLE_CLASSES[stream % len(ORACLE_CLASSES)]
        yield generate_instance(seed, stream, 2 + stream % 7, wwm, s_class, block)


def random_instance(stream, dim=None, block_class="general_unitary",
                    wwm_class="mixed", s_class="s_mixed", seed=555):
    gen = rng(seed, stream)
    if dim is None:
        dim = int(gen.integers(2, 5))
    return generate_instance(seed, stream, dim, wwm_class, s_class, block_class)


# --- assembly / block constructors ---------------------------------------------

def test_assemble_scalar_blocks_is_hadamard_like():
    one = np.eye(1, dtype=complex)
    blocks = WwmBlocks(vpp=one, vpm=one, vmp=one, vmm=one)
    expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    assert np.allclose(assemble_global_unitary(blocks), expected, atol=0)


def test_assemble_mixed_blocks_unitary():
    blocks = WwmBlocks(vpp=I2, vpm=SIGMA_X, vmp=I2, vmm=SIGMA_X)
    u = assemble_global_unitary(blocks)
    assert u.shape == (4, 4)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("dim", [4, 6])
def test_global_unitary_round_trip(dim):
    u = haar_random_unitary(dim, dim)
    blocks = from_global_unitary(u)
    assert np.abs(assemble_global_unitary(blocks) - u).max() <= 1e-12
    assert validate_unitarity(blocks)


def test_unitary_pair_round_trip_through_assembly():
    blocks = from_unitary_pair(haar_random_unitary(3, 1), haar_random_unitary(3, 2))
    again = from_global_unitary(assemble_global_unitary(blocks))
    for name in ("vpp", "vpm", "vmp", "vmm"):
        assert np.abs(getattr(again, name) - getattr(blocks, name)).max() <= 1e-12


def test_from_unitary_pair_validates():
    assert validate_unitarity(from_unitary_pair(I2, I2))
    assert validate_unitarity(from_unitary_pair(I2, SIGMA_X))
    phase = np.diag([np.exp(0.25j * np.pi), np.exp(-0.25j * np.pi)])
    assert validate_unitarity(from_unitary_pair(phase, phase.conj().T))
    with pytest.raises(ValidationError):
        from_unitary_pair(2.0 * I2, I2)


def test_validate_unitarity_catches_scaling():
    blocks = WwmBlocks(vpp=2.0 * I2, vpm=I2, vmp=I2, vmm=I2)
    assert not validate_unitarity(blocks)
    with pytest.raises(ValidationError):
        InterferometerInstance(s=0.0, blocks=blocks, rho_d0=KET0)
    assert validate_unitarity(WwmBlocks(vpp=I2, vpm=I2, vmp=I2, vmm=I2))


BLOCK_NAMES = ("vpp", "vpm", "vmp", "vmm")


def joint_is_unitary(blocks):
    """The reference: the assembled 2n x 2n joint operator through ``linalg.is_unitary``."""
    return linalg.is_unitary(assemble_global_unitary(blocks))


def joint_deviation(blocks):
    """max |U^dagger U - I| of each assembled joint operator."""
    u = assemble_global_unitary(blocks)
    return np.abs(linalg.dagger(u) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def unitary_block_stack(dim: int, seed: int):
    """20 general and 20 unitary-pair instances' blocks of dimension ``dim``."""
    gen = rng(seed, dim)
    general = interferometer.global_blocks(linalg.haar_from_normals(gen.standard_normal((20, 2, 2 * dim, 2 * dim))))
    pair = linalg.haar_from_normals(gen.standard_normal((20, 2, 2, dim, dim)))
    paired = interferometer.pair_blocks(pair[:, 0], pair[:, 1])
    return WwmBlocks.adopt(*(np.concatenate([getattr(general, name), getattr(paired, name)])
                             for name in BLOCK_NAMES))


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_unitarity_from_blocks_agrees_with_the_joint_operator_at_the_tolerance(dim, factor):
    # Each instance's blocks move along a random direction until its joint
    # operator's deviation is factor x 1e-10; both checks must then agree.
    blocks = unitary_block_stack(dim, 31)
    assert joint_is_unitary(blocks).all() and validate_unitarity(blocks).all()
    gen = rng(32, dim)
    direction = gen.standard_normal((4, 40, dim, dim)) + 1j * gen.standard_normal((4, 40, dim, dim))

    def moved(eps):
        return WwmBlocks.adopt(*(getattr(blocks, name) + eps[:, None, None] * g
                                 for name, g in zip(BLOCK_NAMES, direction)))

    probe = np.full(40, 1e-7)
    edge = moved(probe * factor * VALIDATION_ATOL / joint_deviation(moved(probe)))
    assert np.allclose(joint_deviation(edge), factor * VALIDATION_ATOL, rtol=1e-3, atol=0)
    reference = joint_is_unitary(edge)
    assert reference.tolist() == [factor < 1] * 40
    assert np.array_equal(validate_unitarity(edge), reference)


@pytest.mark.parametrize("dim", [2, 5])
def test_unitarity_from_blocks_agrees_with_the_joint_operator_off_unitary(dim):
    # Swapped, scaled and shuffled blocks of unitary instances, most of them not unitary.
    blocks = unitary_block_stack(dim, 33)
    for candidate in (WwmBlocks.adopt(blocks.vpm, blocks.vpp, blocks.vmp, blocks.vmm),
                      WwmBlocks.adopt(blocks.vpp, blocks.vpm, blocks.vmm, blocks.vmp),
                      WwmBlocks.adopt(blocks.vpp[::-1], blocks.vpm, blocks.vmp, blocks.vmm),
                      WwmBlocks.adopt(blocks.vpp * (1.0 + np.logspace(-14, -6, 40))[:, None, None],
                                      blocks.vpm, blocks.vmp, blocks.vmm)):
        reference = joint_is_unitary(candidate)
        assert not reference.all()
        assert np.array_equal(validate_unitarity(candidate), reference)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e155, 1j * np.inf])
@pytest.mark.parametrize("name", BLOCK_NAMES)
def test_unitarity_from_blocks_fails_non_finite_entries_without_a_warning(name, value):
    stacks = {block: np.stack([I2, SIGMA_X, I2]) for block in BLOCK_NAMES}
    stacks[name][1, 0, 1] = value
    blocks = WwmBlocks(**stacks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = validate_unitarity(blocks)
    with np.errstate(invalid="ignore"):  # the assembly divides an infinite entry by sqrt(2)
        assert ok.tolist() == joint_is_unitary(blocks).tolist() == [True, False, True]


def test_from_global_unitary_rejects_bad_input():
    with pytest.raises(ValidationError):
        from_global_unitary(np.eye(3))
    with pytest.raises(ValidationError):
        from_global_unitary(np.diag([2.0, 0.5, 1.0, 1.0]))


def test_from_tilted_pair_rejects_non_unitary_input():
    with pytest.raises(ValidationError, match="u_plus"):
        from_tilted_pair(0.3, 2.0 * I2, I2)
    with pytest.raises(ValidationError, match=r"u_minus\[1\]"):
        from_tilted_pair(np.array([0.3, 0.4]), np.stack([I2, I2]), np.stack([I2, 1.5 * I2]))


@pytest.mark.parametrize("theta, stacked, match", [
    (math.inf, False, "finite"), (math.nan, False, "finite"), ("a", False, "real number"),
    (True, False, "real number"), (1j, False, "real number"), ([0.1, [0.2]], False, "real number"),
    (np.zeros(3), True, r"leading shape \(2,\), got \(3,\)"), (0.3, True, "leading shape"),
    (np.array([0.3, -np.inf]), True, r"angle theta\[1\] must be finite"),
])
def test_from_tilted_pair_rejects_a_bad_angle(theta, stacked, match):
    # Each angle's cosine and sine scale one unitary of the stack.
    u = np.stack([I2, I2]) if stacked else I2
    with pytest.raises(ValidationError, match=match):
        from_tilted_pair(theta, u, u)


def test_blocks_dimension_mismatch():
    with pytest.raises(ValidationError):
        WwmBlocks(vpp=I2, vpm=np.eye(3), vmp=I2, vmm=I2)


# --- evolve: frozen examples -----------------------------------------------------

def test_evolve_identity_blocks_full_inversion():
    inst = InterferometerInstance(
        s=1.0, blocks=from_unitary_pair(I2, I2),
        rho_d0=np.diag([0.6, 0.4]).astype(complex), phi=0.0)
    k, rep = inst.kernel, hierarchy_report(inst)
    assert k.w_plus == pytest.approx(0.5, abs=1e-12)
    assert k.w_minus == pytest.approx(0.5, abs=1e-12)
    assert k.c == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert rep["v"] == pytest.approx(1.0, abs=1e-12)
    assert rep["p"] == pytest.approx(0.0, abs=1e-12)


def test_evolve_orthogonal_marker_kills_contrast():
    inst = InterferometerInstance(
        s=0.0, blocks=from_unitary_pair(I2, SIGMA_X), rho_d0=KET0, phi=0.7)
    assert inst.kernel.w_plus == pytest.approx(0.5, abs=1e-12)
    assert inst.kernel.c_up == pytest.approx(0.0, abs=1e-12)
    assert hierarchy_report(inst)["v"] == pytest.approx(0.0, abs=1e-12)


def test_evolve_mixed_quanton_identity_blocks():
    inst = InterferometerInstance(
        s=0.0, blocks=from_unitary_pair(I2, I2),
        rho_d0=np.diag([0.5, 0.5]).astype(complex), phi=1.1)
    k = inst.kernel
    # branch contrasts are +1 and -1; the balanced mixture erases them
    assert k.c_up == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert k.c_down == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert k.c == pytest.approx(0.0, abs=1e-12)


def test_evolve_structural_postconditions():
    for inst in oracle_instances():
        bloch = evolve(inst)
        rho = final_state(inst)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        assert inst.kernel.w_plus + inst.kernel.w_minus == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(bloch) <= 1.0 + 1e-10


def test_evolve_takes_an_instance_that_construction_accepts_at_its_edge():
    # U (I + 0.95e-10 J)^(1/2), J all ones, is 0.95e-10 from unitary in each
    # entry of U^dagger U, within the 2e-10 of the block identities.  A marker
    # along the top eigenvector of W+ + W- then has w+ + w- = 1 + 5.7e-10,
    # beyond the 1e-10 of a re-check of the sum, which evolve must not make.
    eps = 0.95e-10
    root = np.eye(16) + (math.sqrt(1.0 + 16.0 * eps) - 1.0) / 16.0 * np.ones((16, 16))
    blocks = interferometer.global_blocks(linalg.haar_from_normals(rng(1).standard_normal((2, 16, 16))) @ root)
    top = np.linalg.eigh(blocks.vpp @ linalg.dagger(blocks.vpp) + blocks.vpm @ linalg.dagger(blocks.vpm))[1][:, -1]
    inst = InterferometerInstance(s=1.0, blocks=blocks, rho_d0=np.outer(top, top.conj()))
    assert inst.kernel.w_plus + inst.kernel.w_minus > 1.0 + VALIDATION_ATOL
    bloch = evolve(inst)
    assert bloch.shape == (3,) and np.isfinite(bloch).all()


def test_evolve_matches_term_by_term_expansion():
    for inst in oracle_instances():
        assert np.abs(final_state(inst) - final_state_by_expansion(inst)).max() <= 1e-10


def test_way_probabilities_formula_vs_projection():
    for inst in oracle_instances():
        proj = np.kron((I2 + SIGMA_X) / 2.0, np.eye(inst.n))
        w_proj = float(np.trace(proj @ final_state(inst)).real)
        assert abs(w_proj - inst.kernel.w_plus) <= 1e-10


def test_bloch_vector_matches_partial_trace_and_redundant_line():
    for inst in oracle_instances():
        bloch_final, k = evolve(inst), inst.kernel
        rho_q = reduced_quanton_state(inst)
        bloch = [float(np.trace(rho_q @ sigma).real) for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        assert np.abs(np.array(bloch) - bloch_final).max() <= 1e-10
        # the redundant z-component line equals the real part of the combined form
        phase = np.exp(-1j * inst.phi)
        redundant = (-(1.0 + inst.s) / 2.0 * (k.c_up * phase).real
                     - (1.0 - inst.s) / 2.0 * (k.c_down * phase).real)
        assert abs(redundant - bloch_final[2]) <= 1e-10


def test_fringe_pattern_amplitude_and_visibility():
    for stream in range(12):
        inst = random_instance(stream, dim=2)
        phis = 2.0 * np.pi * np.arange(20) / 20.0
        probs = np.array([upper_port_probability(inst, p) for p in phis])
        mean = probs.mean()
        amplitude = abs((2.0 / 20.0) * (probs * np.exp(1j * phis)).sum())
        assert mean == pytest.approx(0.5, abs=1e-10)
        assert amplitude == pytest.approx(abs(inst.kernel.c) / 2.0, abs=1e-8)
        fitted_contrast = ((mean + amplitude) - (mean - amplitude)) / ((mean + amplitude) + (mean - amplitude))
        assert fitted_contrast == pytest.approx(hierarchy_report(inst)["v"], abs=1e-8)


def test_visibility_predictability_bound():
    for stream in range(200):
        rep = hierarchy_report(random_instance(stream))
        assert rep["v"] * rep["v"] + rep["p"] * rep["p"] <= 1.0 + 1e-9


def test_extreme_predictability_scalar_marker():
    # one-dimensional marker, splitter fully open: the + way is certain, so
    # the - branch is degenerate and P and V are read from the Bloch vector
    one = np.eye(1, dtype=complex)
    blocks = from_tilted_pair(0.0, one, one)
    inst = InterferometerInstance(s=1.0, blocks=blocks, rho_d0=one, phi=0.0)
    x, y, z = evolve(inst)
    assert abs(x) == pytest.approx(1.0, abs=1e-12)
    assert math.hypot(y, z) == pytest.approx(0.0, abs=1e-12)


# --- conditional states -----------------------------------------------------------

def test_conditionals_orthogonal_marker():
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, SIGMA_X), rho_d0=KET0)
    w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
    assert w_plus == pytest.approx(0.5, abs=1e-12)
    assert w_minus == pytest.approx(0.5, abs=1e-12)
    assert np.abs(rho_plus - KET0).max() <= 1e-12
    assert np.abs(rho_minus - np.diag([0.0, 1.0])).max() <= 1e-12


def test_conditionals_identity_blocks_store_nothing():
    rho0 = random_density(3, 2, 8)
    inst = InterferometerInstance(s=0.3, blocks=from_unitary_pair(np.eye(3), np.eye(3)), rho_d0=rho0)
    _, rho_plus, _, rho_minus = conditional_wwm_states(inst)
    assert np.abs(rho_plus - rho0).max() <= 1e-12
    assert np.abs(rho_minus - rho0).max() <= 1e-12


def test_conditionals_unitary_image_of_pure_state_is_pure():
    for stream in range(20):
        inst = generate_instance(99, stream, 3, "pure", "s_pure", "unitary_pair")
        _, rho_plus, _, rho_minus = conditional_wwm_states(inst)
        assert np.trace(rho_plus @ rho_plus).real == pytest.approx(1.0, abs=1e-10)
        assert np.trace(rho_minus @ rho_minus).real == pytest.approx(1.0, abs=1e-10)


def test_conditionals_match_projective_partial_trace():
    for inst in oracle_instances():
        w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
        wp2, rp2, wm2, rm2 = conditional_states_from_final(inst)
        assert abs(w_plus - wp2) <= 1e-10
        assert abs(w_minus - wm2) <= 1e-10
        assert np.abs(rho_plus - rp2).max() <= 1e-10
        assert np.abs(rho_minus - rm2).max() <= 1e-10


def test_degenerate_branch_raises():
    one = np.eye(1, dtype=complex)
    inst = InterferometerInstance(s=1.0, blocks=from_tilted_pair(0.0, one, one), rho_d0=one)
    with pytest.raises(DegenerateBranchError):
        conditional_wwm_states(inst)


def test_way_operators_sum_to_identity():
    for stream in range(20):
        inst = random_instance(stream)
        wp_op, wm_op = inst.kernel.wp_op, inst.kernel.wm_op
        assert np.abs(wp_op + wm_op - np.eye(inst.n)).max() <= 1e-12


# --- instance validation and serialization ------------------------------------------

def test_instance_rejects_bad_inversion():
    blocks = from_unitary_pair(I2, I2)
    with pytest.raises(ValidationError):
        InterferometerInstance(s=1.5, blocks=blocks, rho_d0=KET0)


def test_instance_rejects_bad_density():
    blocks = from_unitary_pair(I2, I2)
    with pytest.raises(ValidationError):
        InterferometerInstance(s=0.0, blocks=blocks, rho_d0=np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        InterferometerInstance(s=0.0, blocks=blocks, rho_d0=np.diag([1.5, -0.5]))


def test_instance_rejects_non_finite_phase():
    blocks = from_unitary_pair(I2, I2)
    for phi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            InterferometerInstance(s=0.0, blocks=blocks, rho_d0=KET0, phi=phi)


def test_instance_rejects_non_numeric_inversion_and_phase():
    blocks = from_unitary_pair(I2, I2)
    for fields in ({"s": "0.5"}, {"s": 0.5j}, {"phi": "0"}, {"phi": None}):
        with pytest.raises(ValidationError, match="real number"):
            InterferometerInstance(**{"s": 0.0, "blocks": blocks, "rho_d0": KET0, **fields})


def test_instance_rejects_dimension_mismatch():
    blocks = from_unitary_pair(I2, I2)
    with pytest.raises(ValidationError):
        InterferometerInstance(s=0.0, blocks=blocks, rho_d0=np.eye(3) / 3.0)


@pytest.mark.parametrize("stacked", [False, True])
def test_instance_rejects_inversion_or_phase_off_the_blocks_leading_shape(stacked):
    # One instance takes scalars.  N stacked blocks take s and phi of shape
    # (N,) in validate_instances, but an instance holds one set of blocks.
    blocks, rho, lead = from_unitary_pair(I2, I2), I2 / 2.0, ()
    if stacked:
        blocks = WwmBlocks(*(np.stack([m, m]) for m in (blocks.vpp, blocks.vpm, blocks.vmp, blocks.vmm)))
        rho, lead = np.stack([rho, rho]), (2,)
    good = {"s": np.full(lead, 0.5), "phi": np.zeros(lead)}
    s, phi, rho_checked = validate_instances(blocks=blocks, rho_d0=rho, **good)
    assert (s.shape, phi.shape, rho_checked.shape) == (lead, lead, (*lead, 2, 2))
    if stacked:
        with pytest.raises(ValidationError, match=r"one set of \(n, n\) blocks, got a stack of shape \(2, 2, 2\)"):
            InterferometerInstance(blocks=blocks, rho_d0=rho, **good)
    else:
        assert InterferometerInstance(blocks=blocks, rho_d0=rho, **good).kernel.c.shape == ()
    for name in ("s", "phi"):
        for shape in {(2,) if not stacked else (), (3,), (1, *lead)}:
            fields = {**good, name: np.full(shape, 0.5)}
            with pytest.raises(ValidationError, match="leading shape"):
                InterferometerInstance(blocks=blocks, rho_d0=rho, **fields)


@pytest.mark.parametrize("fields", [
    {"blocks": ("a", I2, I2, I2)}, {"blocks": (I2, [[1.0, "x"], [0.0, 1.0]], I2, I2)}, {"rho_d0": "x"},
    {"rho_d0": [[0.5, object()], [0.0, 0.5]]},
])
def test_non_numeric_matrices_raise_validation_error(fields):
    with pytest.raises(ValidationError, match="numeric matrix"):
        blocks = WwmBlocks(*fields.get("blocks", (I2, I2, I2, I2)))
        InterferometerInstance(s=0.0, blocks=blocks, rho_d0=fields.get("rho_d0", KET0))


def test_serialization_round_trip():
    inst = random_instance(3)
    data = json.loads(json.dumps(inst.to_dict()))
    back = instance_from_dict(data)
    assert back.s == inst.s
    assert back.phi == inst.phi
    assert np.abs(back.rho_d0 - inst.rho_d0).max() == 0.0
    for name in ("vpp", "vpm", "vmp", "vmm"):
        assert np.abs(getattr(back.blocks, name) - getattr(inst.blocks, name)).max() == 0.0


def test_matrix_to_pairs_equals_the_entry_by_entry_reference():
    # Compared by repr, which tells -0.0 from 0.0 and shows every bit of a
    # float; a transposed view and a stack are not contiguous or not square.
    rho = random_instance(6, dim=3).rho_d0
    signed = np.array([[-0.0 + 0.0j, complex(0.0, -0.0)], [complex(-0.0, -0.0), complex(5e-324, -1e308)]])
    for m in (rho, rho.T, np.stack([rho, rho.conj()]), signed, [[1, 2j], [3, 4]]):
        a = np.asarray(m, dtype=complex)
        reference = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
        assert repr(matrix_to_pairs(m)) == repr(reference)
        assert all(type(x) is float for pair in matrix_to_pairs(m) for x in pair)


MATRIX_NAMES = ("rho_d0", "vpp", "vpm", "vmp", "vmm")
ENTRIES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
                    st.integers(-2 ** 70, 2 ** 70), st.floats().map(np.float64))
# A malformed part: an entry, a pair or a whole matrix.
BAD_ENTRIES = st.one_of(st.booleans(), st.sampled_from(["0.5", None, 1j, [0.5], 2 ** 1100, np.bool_(True)]))
BAD_PAIRS = st.sampled_from([[0.5], [0.5, 0.0, 0.0], None, "ab", {"a": 0.5, "b": 0.0}, 0.5, np.zeros(()), (0.5,)])
WRAPS = (lambda x: [x], lambda x: [], lambda x: [x, x], lambda x: (x,), lambda x: np.array([x]), lambda x: [[x]])


@st.composite
def instance_objects(draw):
    """Instance objects whose matrices are lists, tuples or numpy arrays of
    any numbers, with up to two malformed matrices."""
    n = draw(st.integers(1, 3))
    mats = {}
    for name in MATRIX_NAMES:
        pairs = draw(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=n * n, max_size=n * n))
        mats[name] = draw(st.sampled_from([pairs, tuple(map(tuple, pairs)), np.array(pairs)]))
    for name in draw(st.lists(st.sampled_from(MATRIX_NAMES), max_size=2, unique=True)):
        pairs = [list(pair) for pair in mats[name]]
        i, level = draw(st.integers(0, n * n - 1)), draw(st.sampled_from(("entry", "pair", "parts", "matrix")))
        if level == "entry":
            pairs[i][draw(st.integers(0, 1))] = draw(BAD_ENTRIES)
        elif level == "pair":
            pairs[i] = draw(BAD_PAIRS)
        elif level == "parts":  # every part of the matrix in a sequence of its own
            wrap = draw(st.sampled_from(WRAPS))
            pairs = [[wrap(x) for x in pair] for pair in pairs]
        else:
            pairs = draw(st.sampled_from([pairs[:-1], pairs + pairs[:1], None, 2.0, "x", dict(enumerate(pairs)),
                                          set(map(tuple, pairs)), np.array(pairs)[None]]))
        mats[name] = pairs
    return {"s": 0.0, "phi": 0.0, "n": n, "rho_d0": mats["rho_d0"],
            "blocks": {name: mats[name] for name in MATRIX_NAMES[1:]}}


def parsed(d) -> str:
    """The repr of the five matrices ``instance_from_dict`` parses from ``d``,
    taken before the instance's own checks, or its error message."""
    with mock.patch.object(interferometer, "InterferometerInstance", lambda s, blocks, rho_d0, phi: (rho_d0, blocks)):
        try:
            rho, b = instance_from_dict(d)
        except ValidationError as exc:
            return str(exc)
    return repr([m.tolist() for m in (rho, b.vpp, b.vpm, b.vmp, b.vmm)])


def parsed_by_reference(d) -> str:
    """:func:`parsed` with each matrix parsed on its own by the reference, in order."""
    mats = (d["rho_d0"], *(d["blocks"][name] for name in MATRIX_NAMES[1:]))
    try:
        return repr([matrix_from_pairs(m, d["n"], name).tolist() for m, name in zip(mats, MATRIX_NAMES)])
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(d=instance_objects())
def test_one_pass_parse_equals_the_per_matrix_reference(d):
    # By repr, which tells -0.0 from 0.0 and shows every bit of a float.
    assert parsed(d) == parsed_by_reference(d)


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_parse_errors_name_their_matrix(name):
    good = random_instance(4, dim=2).to_dict()
    for where, value, message in (("entry", "0.5", f"{name} entries[7] must be a real number, got '0.5'"),
                                  ("pair", [0.5], f"{name} must be a list of 4 [re, im] pairs")):
        d = json.loads(json.dumps(good))
        target = d if name == "rho_d0" else d["blocks"]
        if where == "entry":
            target[name][3][1] = value
        else:
            target[name][3] = value
        with pytest.raises(ValidationError) as info:
            instance_from_dict(d)
        assert str(info.value) == message


def test_parse_errors_name_the_first_malformed_part():
    good = random_instance(4, dim=2).to_dict()
    for bad, message in (({"rho_d0": (1, 0, 2 ** 1100), "vpp": (3, 1, "0.5")},
                          "rho_d0 entries[2] must be finite, got a value beyond the float range"),
                         ({"vpm": (1, 1, True), "vmp": (0, 0, None)}, "vpm entries[3] must be a real number, got True"),
                         ({"vmm": (1, 0, "0.5")}, "vmm entries[2] must be a real number, got '0.5'"),
                         ({"vmm": (0, 1, None)}, "vmm entries[1] must be a real number, got None")):
        d = json.loads(json.dumps(good))
        for name, (i, j, value) in bad.items():
            (d if name == "rho_d0" else d["blocks"])[name][i][j] = value
        if len(bad) == 1:  # a second bad entry, later in the same matrix
            d["blocks"]["vmm"][3][0] = False
        assert parsed(d) == parsed_by_reference(d) == message
    # Every part of a matrix, or of all five, wrapped in a list: a sequence
    # where a number belongs, which fails the shape of the matrix's entries.
    for names in (("vpm",), ("vpm", "vmp"), MATRIX_NAMES):
        for wrap, shape in ((lambda x: [x], (8, 1)), (lambda x: [], (8, 0)), (lambda x: [x, 0.0], (8, 2))):
            d = json.loads(json.dumps(good))
            for name in names:
                target = d if name == "rho_d0" else d["blocks"]
                target[name] = [[wrap(x) for x in pair] for pair in target[name]]
            message = f"{names[0]} entries must have leading shape (8,), got {shape}"
            assert parsed(d) == parsed_by_reference(d) == message
            with pytest.raises(ValidationError, match=re.escape(message)):
                instance_from_dict(d)
    d = json.loads(json.dumps(good))
    d["blocks"]["vmp"] = np.array(d["blocks"]["vmp"])[..., None]  # (n*n, 2, 1) from a Python caller
    assert parsed(d) == parsed_by_reference(d) == "vmp entries must have leading shape (8,), got (8, 1)"
    d["blocks"]["vmp"] = [[[x] for x in pair] for pair in good["blocks"]["vmp"]]
    d["blocks"]["vmp"][1][1] = [True]  # a wrapped part that is no number is named by its index
    assert parsed(d) == parsed_by_reference(d) == "vmp entries[3, 0] must be a real number, got True"


def test_deserialization_rejects_malformed():
    with pytest.raises(ValidationError):
        instance_from_dict({"s": 0.0})
    good = random_instance(4).to_dict()
    bad = dict(good)
    bad["rho_d0"] = good["rho_d0"][:-1]
    with pytest.raises(ValidationError):
        instance_from_dict(bad)


def test_contrast_factors_match_evolution_result():
    inst = random_instance(9)
    c_up, c_down, c = contrast_factors(inst)
    k = inst.kernel
    assert c_up == k.c_up and c_down == k.c_down and c == k.c
    zy = -np.exp(-1j * inst.phi) * c
    assert np.abs(evolve(inst)[1:] - [zy.imag, zy.real]).max() <= 1e-15


def test_kernel_computed_once_and_read_only():
    inst = random_instance(5)
    kernel = inst.kernel
    assert inst.kernel is kernel
    with pytest.raises(ValueError):
        kernel.wp_rho[0, 0] = 0.0
