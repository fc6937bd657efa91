"""Test oracles and seeded fixtures that share no arithmetic with the engine.

``final_state`` builds the final 2n x 2n joint state by the direct matrix
route: Kronecker products, the assembled joint unitary and the quanton
optics.  The quantities the engine reads from its kernel (way
probabilities, conditional marker states, the fringe) are extracted from
it projectively.
"""

import math

import numpy as np

from duality.errors import DegenerateBranchError
from duality.interferometer import InterferometerInstance, assemble_global_unitary
from duality.linalg import SIGMA_X, density_from, haar_unitary_from, rng
from duality.tolerances import DEGENERATE_WEIGHT


def final_state(inst: InterferometerInstance) -> np.ndarray:
    """Final joint 2n x 2n state by the direct matrix route.

    Conjugates the initial product state by the assembled joint operator and
    then by the quanton optics: the phase shifter exp(-i phi sigma_z / 2)
    followed by the merger exp(-i pi sigma_y / 4), identity on the marker.
    """
    r = 1.0 / math.sqrt(2.0)
    optics = np.array([[r, -r], [r, r]]) @ np.diag([np.exp(-0.5j * inst.phi), np.exp(0.5j * inst.phi)])
    m = np.kron(optics, np.eye(inst.n)) @ assemble_global_unitary(inst.blocks).conj().T
    rho_q0 = np.diag([(1.0 + inst.s) / 2.0, (1.0 - inst.s) / 2.0])
    return m @ np.kron(rho_q0, inst.rho_d0) @ m.conj().T


def reduced_quanton_state(inst: InterferometerInstance) -> np.ndarray:
    """Partial trace of the final joint state over the marker."""
    return np.trace(final_state(inst).reshape(2, inst.n, 2, inst.n), axis1=1, axis2=3)


def upper_port_probability(inst: InterferometerInstance, phi: float) -> float:
    """Probability of the quanton's upper output state at phase ``phi``: the
    instance re-run at that phase, projected onto (1 + sigma_z)/2."""
    shifted = InterferometerInstance(s=inst.s, blocks=inst.blocks, rho_d0=inst.rho_d0, phi=phi)
    return float(reduced_quanton_state(shifted)[0, 0].real)


def conditional_states_from_final(inst: InterferometerInstance) -> tuple:
    """``(w_plus, rho_plus, w_minus, rho_minus)`` extracted projectively from
    the final joint state by the (1 +- sigma_x)/2 way projectors."""
    n = inst.n
    rho_final = final_state(inst)
    out = []
    for sign in (+1.0, -1.0):
        proj = np.kron((np.eye(2) + sign * SIGMA_X) / 2.0, np.eye(n))
        w_rho = np.trace((proj @ rho_final).reshape(2, n, 2, n), axis1=0, axis2=2)
        w = float(np.trace(w_rho).real)
        if w < DEGENERATE_WEIGHT:
            raise DegenerateBranchError(f"degenerate branch in projective extraction: w = {w!r}")
        out.extend([w, w_rho / w])
    return tuple(out)


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random ``dim x dim`` unitary, deterministic in ``seed``."""
    return haar_unitary_from(rng(seed), dim)


def random_density(dim: int, rank: int, seed: int) -> np.ndarray:
    """Random density matrix of the requested rank, deterministic in ``seed``."""
    return density_from(rng(seed), dim, rank)
