"""Test oracles and seeded fixtures that share no arithmetic with the engine.

``final_state`` builds the final 2n x 2n joint state by the direct matrix
route: Kronecker products, the assembled joint unitary and the quanton
optics.  The quantities the engine reads from its kernel (way
probabilities, conditional marker states, the fringe) are extracted from
it projectively.  ``matrix_from_pairs`` parses one matrix of the instance
JSON schema on its own, the reference for the parse of
``instance_from_dict``.  ``decimal_report`` computes the report of a
two-level instance from its stored numbers in 45-digit decimal arithmetic,
with no numpy at all.
"""

import decimal
import math
import numbers

import numpy as np

from duality.errors import DegenerateBranchError, ValidationError
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


def matrix_from_pairs(pairs, n: int, name: str) -> np.ndarray:
    """One matrix of an instance object, checked and converted on its own.

    The matrix and each of its n*n [re, im] pairs must be a list, tuple or
    numpy array.  Its 2n^2 entries, numbered 2 * pair + part, are read as
    numpy reads a nested list: when every part is itself a sequence of one
    length, those form a further dimension, and an element is numbered by
    its index in each.  The elements are checked one by one: each must be a
    real number other than a bool and within the float range.  Then the
    entries must form a flat list of 2n^2, and each must be finite.  The
    first offending element is named.
    """
    sequences = (list, tuple, np.ndarray)
    try:
        shaped = type(pairs) in sequences and len(pairs) == n * n and all(
            type(pair) in sequences and len(pair) == 2 for pair in pairs)
    except TypeError:
        shaped = False
    if not shaped:
        raise ValidationError(f"{name} must be a list of {n * n} [re, im] pairs")
    grid = np.asarray([x for pair in pairs for x in pair], dtype=object)
    for k, x in zip(np.ndindex(grid.shape), grid.flat):
        at = f"{name} entries[{', '.join(map(str, k))}]"
        if type(x) is bool or not isinstance(x, numbers.Real):
            raise ValidationError(f"{at} must be a real number, got {x!r}")
        try:
            float(x)
        except OverflowError:
            raise ValidationError(f"{at} must be finite, got a value beyond the float range") from None
    if grid.shape != (2 * n * n,):
        raise ValidationError(f"{name} entries must have leading shape {(2 * n * n,)}, got {grid.shape}")
    entries = list(grid)
    for k, x in enumerate(map(float, entries)):
        if not math.isfinite(x):
            raise ValidationError(f"{name} entries[{k}] must be finite, got {x}")
    flat = np.array([float(x) for x in entries]).reshape(-1, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)


def _cmul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _matmul(a: list, b: list) -> list:
    """The product of two 2x2 matrices of (re, im) pairs."""
    return [[tuple(sum(parts) for parts in zip(*(_cmul(a[i][k], b[k][j]) for k in range(2))))
             for j in range(2)] for i in range(2)]


def _dagger(a: list) -> list:
    return [[(a[j][i][0], -a[j][i][1]) for j in range(2)] for i in range(2)]


def _combine(x, a: list, y, b: list) -> list:
    """x a + y b for real x and y."""
    return [[(x * a[i][j][0] + y * b[i][j][0], x * a[i][j][1] + y * b[i][j][1]) for j in range(2)]
            for i in range(2)]


def _eigenvalues(m: list) -> tuple:
    """The two eigenvalues of a Hermitian 2x2 matrix, (t -+ r)/2 with t its trace and
    r = sqrt((m00 - m11)^2 + 4 |m01|^2)."""
    t, gap = m[0][0][0] + m[1][1][0], m[0][0][0] - m[1][1][0]
    r = (gap * gap + 4 * (m[0][1][0] * m[0][1][0] + m[0][1][1] * m[0][1][1])).sqrt()
    return (t - r) / 2, (t + r) / 2


def decimal_report(inst: InterferometerInstance) -> dict:
    """V, P, Q, D, Xi and the slacks o2p, o2q, o2_nuevita and o1 of a two-level
    instance, as 45-digit decimals computed from its stored floats, each
    converted exactly.

    The route is the kernel's formulas written out: w+- rho+- = sum V^dagger
    rho_d0 V over the blocks of each way, weighted (1 +- s)/4, w+- their
    traces and C = (1 + s)/2 tr(rho_d0 V+- V++^dagger) - (1 - s)/2
    tr(rho_d0 V-- V-+^dagger).  Q and D are read from the closed-form
    eigenvalues of rho+ - rho- and of w+ rho+ - w- rho-.
    """
    if inst.n != 2:
        raise ValueError(f"decimal_report takes two-level markers, got n = {inst.n}")
    d = inst.to_dict()
    with decimal.localcontext() as ctx:
        ctx.prec = 45
        D = decimal.Decimal

        def matrix(pairs):
            return [[(D(re), D(im)) for re, im in pairs[2 * i:2 * i + 2]] for i in range(2)]

        rho = matrix(d["rho_d0"])
        vpp, vpm, vmp, vmm = (matrix(d["blocks"][name]) for name in ("vpp", "vpm", "vmp", "vmm"))
        s = D(d["s"])
        up, down = (1 + s) / 4, (1 - s) / 4

        def branch(v_up, v_down):
            return _combine(up, _matmul(_dagger(v_up), _matmul(rho, v_up)),
                            down, _matmul(_dagger(v_down), _matmul(rho, v_down)))

        def trace(m):
            return m[0][0][0] + m[1][1][0], m[0][0][1] + m[1][1][1]

        wp_rho, wm_rho = branch(vpp, vmp), branch(vpm, vmm)
        w_plus, w_minus = trace(wp_rho)[0], trace(wm_rho)[0]
        c_up = trace(_matmul(rho, _matmul(vpm, _dagger(vpp))))
        c_down = trace(_matmul(rho, _matmul(vmm, _dagger(vmp))))
        c = tuple((1 + s) / 2 * x - (1 - s) / 2 * y for x, y in zip(c_up, c_down))
        v = (c[0] * c[0] + c[1] * c[1]).sqrt()
        p = abs(w_plus - w_minus)
        q = sum(map(abs, _eigenvalues(_combine(1 / w_plus, wp_rho, -1 / w_minus, wm_rho)))) / 2
        dist = sum(map(abs, _eigenvalues(_combine(1, wp_rho, -1, wm_rho))))
        xi = (q * q + p * p - q * q * p * p).sqrt()
        v_sq, bound_p, bound_q = v * v, 1 - p * p, 1 - q * q
        return {"v": v, "p": p, "q": q, "d": dist, "xi": xi,
                "o2p": bound_p - v_sq, "o2q": bound_q - v_sq, "o2_nuevita": bound_p * bound_q - v_sq,
                "o1": 1 - dist * dist - v_sq}
