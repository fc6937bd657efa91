import json
import math

import numpy as np
import pytest

from duality import linalg
from duality.errors import DegenerateBranchError, ValidationError
from duality.interferometer import (
    EvolutionResult,
    InterferometerInstance,
    WwmBlocks,
    assemble_global_unitary,
    conditional_states_from_final,
    conditional_wwm_states,
    contrast_factors,
    evolve,
    final_state,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
    instance_from_dict,
    predictability,
    reduced_quanton_state,
    upper_port_probability,
    validate_unitarity,
    visibility,
)
from duality.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, rng
from duality.sweep import generate_instance

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
    u = linalg.haar_random_unitary(dim, dim)
    blocks = from_global_unitary(u)
    assert np.abs(assemble_global_unitary(blocks) - u).max() <= 1e-12
    assert validate_unitarity(blocks)


def test_unitary_pair_round_trip_through_assembly():
    blocks = from_unitary_pair(linalg.haar_random_unitary(3, 1), linalg.haar_random_unitary(3, 2))
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


def test_blocks_dimension_mismatch():
    with pytest.raises(ValidationError):
        WwmBlocks(vpp=I2, vpm=np.eye(3), vmp=I2, vmm=I2)


# --- evolve: frozen examples -----------------------------------------------------

def test_evolve_identity_blocks_full_inversion():
    inst = InterferometerInstance(
        s=1.0, blocks=from_unitary_pair(I2, I2),
        rho_d0=np.diag([0.6, 0.4]).astype(complex), phi=0.0)
    res = evolve(inst)
    assert res.w_plus == pytest.approx(0.5, abs=1e-12)
    assert res.w_minus == pytest.approx(0.5, abs=1e-12)
    assert res.c == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert visibility(res) == pytest.approx(1.0, abs=1e-12)
    assert predictability(res) == pytest.approx(0.0, abs=1e-12)


def test_evolve_orthogonal_marker_kills_contrast():
    inst = InterferometerInstance(
        s=0.0, blocks=from_unitary_pair(I2, SIGMA_X), rho_d0=KET0, phi=0.7)
    res = evolve(inst)
    assert res.w_plus == pytest.approx(0.5, abs=1e-12)
    assert res.c_up == pytest.approx(0.0, abs=1e-12)
    assert visibility(res) == pytest.approx(0.0, abs=1e-12)


def test_evolve_mixed_quanton_identity_blocks():
    inst = InterferometerInstance(
        s=0.0, blocks=from_unitary_pair(I2, I2),
        rho_d0=np.diag([0.5, 0.5]).astype(complex), phi=1.1)
    res = evolve(inst)
    # branch contrasts are +1 and -1; the balanced mixture erases them
    assert res.c_up == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert res.c_down == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert res.c == pytest.approx(0.0, abs=1e-12)


def test_evolve_structural_postconditions():
    for inst in oracle_instances():
        res = evolve(inst)
        rho = final_state(inst)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        assert res.w_plus + res.w_minus == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(res.bloch_final) <= 1.0 + 1e-10


def test_evolve_matches_term_by_term_expansion():
    for inst in oracle_instances():
        assert np.abs(final_state(inst) - final_state_by_expansion(inst)).max() <= 1e-10


def test_way_probabilities_formula_vs_projection():
    for inst in oracle_instances():
        res = evolve(inst)
        proj = np.kron((I2 + SIGMA_X) / 2.0, np.eye(inst.n))
        w_proj = float(np.trace(proj @ final_state(inst)).real)
        assert abs(w_proj - res.w_plus) <= 1e-10


def test_bloch_vector_matches_partial_trace_and_redundant_line():
    for inst in oracle_instances():
        res = evolve(inst)
        rho_q = reduced_quanton_state(inst)
        bloch = [float(np.trace(rho_q @ sigma).real) for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        assert np.abs(np.array(bloch) - res.bloch_final).max() <= 1e-10
        # the redundant z-component line equals the real part of the combined form
        phase = np.exp(-1j * inst.phi)
        redundant = (-(1.0 + inst.s) / 2.0 * (res.c_up * phase).real
                     - (1.0 - inst.s) / 2.0 * (res.c_down * phase).real)
        assert abs(redundant - res.bloch_final[2]) <= 1e-10


def test_fringe_pattern_amplitude_and_visibility():
    for stream in range(12):
        inst = random_instance(stream, dim=2)
        res = evolve(inst)
        phis = 2.0 * np.pi * np.arange(20) / 20.0
        probs = np.array([upper_port_probability(inst, p) for p in phis])
        mean = probs.mean()
        amplitude = abs((2.0 / 20.0) * (probs * np.exp(1j * phis)).sum())
        assert mean == pytest.approx(0.5, abs=1e-10)
        assert amplitude == pytest.approx(abs(res.c) / 2.0, abs=1e-8)
        fitted_contrast = ((mean + amplitude) - (mean - amplitude)) / ((mean + amplitude) + (mean - amplitude))
        assert fitted_contrast == pytest.approx(visibility(res), abs=1e-8)


def test_visibility_predictability_bound():
    for stream in range(200):
        inst = random_instance(stream)
        res = evolve(inst)
        v, p = visibility(res), predictability(res)
        assert v * v + p * p <= 1.0 + 1e-9


def test_extreme_predictability_scalar_marker():
    # one-dimensional marker, splitter fully open: the + way is certain
    one = np.eye(1, dtype=complex)
    blocks = from_tilted_pair(0.0, one, one)
    inst = InterferometerInstance(s=1.0, blocks=blocks, rho_d0=one, phi=0.0)
    res = evolve(inst)
    assert predictability(res) == pytest.approx(1.0, abs=1e-12)
    assert visibility(res) == pytest.approx(0.0, abs=1e-12)


# --- conditional states -----------------------------------------------------------

def test_conditionals_orthogonal_marker():
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, SIGMA_X), rho_d0=KET0)
    w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
    assert w_plus == pytest.approx(0.5, abs=1e-12)
    assert w_minus == pytest.approx(0.5, abs=1e-12)
    assert np.abs(rho_plus - KET0).max() <= 1e-12
    assert np.abs(rho_minus - np.diag([0.0, 1.0])).max() <= 1e-12


def test_conditionals_identity_blocks_store_nothing():
    rho0 = linalg.random_density(3, 2, 8)
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


def test_serialization_round_trip():
    inst = random_instance(3)
    data = json.loads(json.dumps(inst.to_dict()))
    back = instance_from_dict(data)
    assert back.s == inst.s
    assert back.phi == inst.phi
    assert np.abs(back.rho_d0 - inst.rho_d0).max() == 0.0
    for name in ("vpp", "vpm", "vmp", "vmm"):
        assert np.abs(getattr(back.blocks, name) - getattr(inst.blocks, name)).max() == 0.0


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
    res = evolve(inst)
    assert c_up == res.c_up and c_down == res.c_down and c == res.c
    assert isinstance(res, EvolutionResult)


def test_kernel_computed_once_and_read_only():
    inst = random_instance(5)
    kernel = inst.kernel
    assert inst.kernel is kernel
    with pytest.raises(ValueError):
        kernel.wp_rho[0, 0] = 0.0
