"""Metamorphic checks of the stacked engine.

Each test transforms random instances in a way the physics says cannot
change V, P, Q or D, or measures a quantity by a route that shares no code
with the engine, and evaluates the originals and the transformed copies
together as one stack, or as one stack per dimension where the copies
change it.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles import conditional_states_from_final, random_density, upper_port_probability

from duality.interferometer import (
    InterferometerInstance,
    WwmBlocks,
    branch_kernel,
    validate_instances,
)
from duality.measures import _report, branch_spectra, evaluate, hierarchy_report, hierarchy_reports
from duality.sweep import BLOCK_CLASSES, S_CLASSES, STRINGENCY_CLASS, WWM_CLASSES, generate_instance

ATOL = 1e-10

instances = st.builds(
    generate_instance,
    st.integers(0, 2 ** 32),
    st.integers(0, 10 ** 6),
    st.integers(2, 6),
    st.sampled_from(("pure", "mixed")),
    st.sampled_from(("s_pure", "s_mixed")),
    st.sampled_from(("unitary_pair", "general_unitary", "tilted_pair")),
)


def haar(seed: int, dim: int) -> np.ndarray:
    """Haar unitary from numpy's default generator and QR (not the package's draw)."""
    gen = np.random.default_rng(seed)
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def stacked_reports(copies: list) -> list:
    """Reports of instances of one dimension, evaluated together as one stack."""
    blocks = WwmBlocks(*(np.stack([getattr(c.blocks, name) for c in copies])
                         for name in ("vpp", "vpm", "vmp", "vmm")))
    s = np.array([c.s for c in copies])
    phi = np.array([c.phi for c in copies])
    s, phi, rho = validate_instances(s, blocks, np.stack([c.rho_d0 for c in copies]), phi)
    k = branch_kernel(blocks, s, rho, phi)
    columns = hierarchy_reports(k, branch_spectra(k, False))
    return [_report({name: col[i] for name, col in columns.items()}) for i in range(len(copies))]


def assert_same_measures(reports):
    first = reports[0]
    for rep in reports[1:]:
        for name in ("v", "p", "q", "d"):
            assert abs(rep[name] - first[name]) <= ATOL, name


def rebuilt(inst, blocks=None, rho_d0=None, phi=None) -> InterferometerInstance:
    return InterferometerInstance(
        s=inst.s, blocks=inst.blocks if blocks is None else blocks,
        rho_d0=inst.rho_d0 if rho_d0 is None else rho_d0,
        phi=inst.phi if phi is None else phi)


@settings(max_examples=40, deadline=None)
@given(instances, st.integers(0, 2 ** 32))
def test_marker_basis_change_leaves_measures_unchanged(inst, seed):
    copies = [inst]
    for k in range(3):
        w = haar(seed + k, inst.n)
        b = inst.blocks
        copies.append(rebuilt(
            inst,
            blocks=WwmBlocks(*(w.conj().T @ m @ w for m in (b.vpp, b.vpm, b.vmp, b.vmm))),
            rho_d0=w.conj().T @ inst.rho_d0 @ w))
    assert_same_measures(stacked_reports(copies))


@settings(max_examples=40, deadline=None)
@given(instances, st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4))
def test_phase_shift_leaves_measures_unchanged(inst, shifts):
    copies = [inst] + [rebuilt(inst, phi=inst.phi + shift) for shift in shifts]
    assert_same_measures(stacked_reports(copies))


@settings(max_examples=40, deadline=None)
@given(instances, st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4))
def test_global_phase_on_the_blocks_changes_nothing(inst, angles):
    copies = [inst]
    for angle in angles:
        b = inst.blocks
        phase = complex(math.cos(angle), math.sin(angle))
        copies.append(rebuilt(inst, blocks=WwmBlocks(*(phase * m for m in (b.vpp, b.vpm, b.vmp, b.vmm)))))
    reports = stacked_reports(copies)
    for rep in reports[1:]:
        for name in ("v", "p", "q", "d", "xi", "v_bound_d", "v_bound_xi"):
            assert abs(rep[name] - reports[0][name]) <= ATOL, name
        assert rep["slacks"].keys() == reports[0]["slacks"].keys()
        for name, value in rep["slacks"].items():
            assert abs(value - reports[0]["slacks"][name]) <= ATOL, name
        assert (rep["r"] is None) == (reports[0]["r"] is None)
        if rep["r"] is not None:
            assert abs(rep["r"] - reports[0]["r"]) <= ATOL


@settings(max_examples=40, deadline=None)
@given(instances)
def test_fringe_scan_contrast_is_the_visibility(inst):
    # The upper-port probability is a first-harmonic fringe in phi, so eight
    # equally spaced samples fix its mean and amplitude exactly, and with
    # them its maximum and minimum.
    phis = 2.0 * math.pi * np.arange(8) / 8
    probs = np.array([upper_port_probability(inst, phi) for phi in phis])
    mean = probs.mean()
    amplitude = abs(2.0 * (probs * np.exp(1j * phis)).mean())
    fringe_max, fringe_min = mean + amplitude, mean - amplitude
    assert abs((fringe_max - fringe_min) / (fringe_max + fringe_min) - hierarchy_report(inst)["v"]) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(instances)
def test_d_is_the_helstrom_norm_of_the_final_state(inst):
    w_plus, rho_plus, w_minus, rho_minus = conditional_states_from_final(inst)
    helstrom = np.linalg.svd(w_plus * rho_plus - w_minus * rho_minus, compute_uv=False).sum()
    assert abs(helstrom - hierarchy_report(inst)["d"]) <= ATOL


# The largest change of V, P, Q, D or Xi under the ancilla embedding below was
# 1.4e-15 over its 360 pairs; the bound leaves room for another BLAS build.
EMBEDDING_ATOL = 1e-14


def evaluated(insts: list, blocks: list, rho_d0: list) -> dict:
    """The evaluate columns of ``insts`` with the given blocks and marker states, as one stack."""
    cols, errors = evaluate(np.array([inst.s for inst in insts]), WwmBlocks(*map(np.stack, zip(*blocks))),
                            np.stack(rho_d0), np.array([inst.phi for inst in insts]))
    assert errors == {}
    return cols


def test_ancilla_embedding_leaves_measures_unchanged():
    # A marker ancilla that takes no part: blocks V+-+- (x) I_2 and marker rho_d0 (x) sigma,
    # for sigma of rank 1 and 2, carry each instance from dimension n to 2n, a
    # different dimension group of the engine.  Seeds 0-4, every class, n = 2, 3, 4.
    classes = list(itertools.product(WWM_CLASSES, S_CLASSES, (*BLOCK_CLASSES, STRINGENCY_CLASS)))
    for n in (2, 3, 4):
        insts = [generate_instance(seed, stream, n, *cls) for seed in range(5) for stream, cls in enumerate(classes)]
        blocks = [(inst.blocks.vpp, inst.blocks.vpm, inst.blocks.vmp, inst.blocks.vmm) for inst in insts]
        original = evaluated(insts, blocks, [inst.rho_d0 for inst in insts])
        for rank in (1, 2):
            embedded = evaluated(insts, [[np.kron(m, np.eye(2)) for m in b] for b in blocks],
                                 [np.kron(inst.rho_d0, random_density(2, rank, i)) for i, inst in enumerate(insts)])
            for name in ("v", "p", "q", "d", "xi"):
                assert np.abs(embedded[name] - original[name]).max() <= EMBEDDING_ATOL, (n, rank, name)
