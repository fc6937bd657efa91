"""Two-way interferometer with a quantum which-way marker (WWM).

The device is modeled in the quanton's sigma_z basis (index 0 corresponds to
sigma_z = +1).  The beam splitter and the marker interaction are absorbed into
a single joint operator built from four blocks acting on the marker space,

    U = (1/sqrt(2)) [[ V++  V+- ]
                     [ -V-+ V-- ]],

and the joint state evolves as rho -> U^dagger rho U.  A phase shifter
exp(-i phi sigma_z / 2) and a beam merger exp(-i pi sigma_y / 4) then act on
the quanton factor alone (as ordinary conjugations).  The two "ways" live at
the central stage of the device; after the merger they are read out by the
(1 +- sigma_x)/2 projectors.

Sign conventions are pinned by the requirement that identity blocks with a
fully polarized quanton (s = 1) give unit fringe visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, ValidationError
from .linalg import SIGMA_X
from .tolerances import DEGENERATE_WEIGHT, PURE_S_ATOL, VALIDATION_ATOL


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WwmBlocks:
    """The four marker-space blocks of the joint beam-splitter/marker operator."""

    vpp: np.ndarray
    vpm: np.ndarray
    vmp: np.ndarray
    vmm: np.ndarray

    def __post_init__(self):
        mats = [linalg.as_square(m, name) for m, name in
                zip((self.vpp, self.vpm, self.vmp, self.vmm), ("vpp", "vpm", "vmp", "vmm"))]
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise ValidationError("all four blocks must share the same dimension")
        for name, m in zip(("vpp", "vpm", "vmp", "vmm"), mats):
            object.__setattr__(self, name, _frozen_array(m))

    @property
    def n(self) -> int:
        return self.vpp.shape[0]


@dataclass(frozen=True)
class BranchKernel:
    """Branch quantities of one instance, computed once.

    Every measure is a function of the way probabilities w+-, the conditional
    marker states rho+- and the contrast factor C, all read from here.

    The way probabilities come by two routes, each feeding its own outputs:
    ``w_plus``/``w_minus`` = tr(rho_d0 W+-) from the way operators
    ``wp_op``/``wm_op``, and ``wp_tr``/``wm_tr``, the traces of the
    unnormalized conditional marker states ``wp_rho``/``wm_rho`` =
    sum V^dagger rho_d0 V.  ``cross_up``/``cross_down`` are V+- V++^dagger and
    V-- V-+^dagger; ``polarized`` is |s| = 1 within ``PURE_S_ATOL``.
    """

    wp_op: np.ndarray
    wm_op: np.ndarray
    w_plus: float
    w_minus: float
    wp_rho: np.ndarray
    wm_rho: np.ndarray
    wp_tr: float
    wm_tr: float
    cross_up: np.ndarray
    cross_down: np.ndarray
    c_up: complex
    c_down: complex
    c: complex
    polarized: bool


def branch_kernel(b: WwmBlocks, s: float, rho_d0: np.ndarray) -> BranchKernel:
    """Evaluate the branch quantities of blocks, inversion and marker state."""
    a, bb = (1.0 + s) / 4.0, (1.0 - s) / 4.0
    wp_op = a * (b.vpp @ b.vpp.conj().T) + bb * (b.vmp @ b.vmp.conj().T)
    wm_op = a * (b.vpm @ b.vpm.conj().T) + bb * (b.vmm @ b.vmm.conj().T)
    wp_rho = a * (b.vpp.conj().T @ rho_d0 @ b.vpp) + bb * (b.vmp.conj().T @ rho_d0 @ b.vmp)
    wm_rho = a * (b.vpm.conj().T @ rho_d0 @ b.vpm) + bb * (b.vmm.conj().T @ rho_d0 @ b.vmm)
    cross_up = b.vpm @ b.vpp.conj().T
    cross_down = b.vmm @ b.vmp.conj().T
    for m in (wp_op, wm_op, wp_rho, wm_rho, cross_up, cross_down):
        m.setflags(write=False)
    c_up = complex(np.trace(rho_d0 @ cross_up))
    c_down = -complex(np.trace(rho_d0 @ cross_down))
    return BranchKernel(
        wp_op, wm_op, float(np.trace(rho_d0 @ wp_op).real), float(np.trace(rho_d0 @ wm_op).real),
        wp_rho, wm_rho, float(np.trace(wp_rho).real), float(np.trace(wm_rho).real),
        cross_up, cross_down, c_up, c_down, (1.0 + s) / 2.0 * c_up + (1.0 - s) / 2.0 * c_down,
        abs(abs(s) - 1.0) <= PURE_S_ATOL)


@dataclass(frozen=True)
class InterferometerInstance:
    """A complete interferometer configuration.

    ``s`` is the quanton inversion (initial state diag((1+s)/2, (1-s)/2));
    the closed interval [-1, 1] is admitted since the fully polarized
    endpoints are the pure-preparation cases used throughout.  ``rho_d0`` is
    the marker's initial density matrix and ``phi`` the phase-shifter angle.
    Construction validates every field, including block unitarity.
    """

    s: float
    blocks: WwmBlocks
    rho_d0: np.ndarray
    phi: float = 0.0

    def __post_init__(self):
        if not -1.0 <= self.s <= 1.0:
            raise ValidationError(f"inversion s must lie in [-1, 1], got {self.s}")
        if not math.isfinite(self.phi):
            raise ValidationError(f"phase phi must be finite, got {self.phi}")
        rho = linalg.require_density(self.rho_d0, "rho_d0")
        if rho.shape[0] != self.blocks.n:
            raise ValidationError(
                f"rho_d0 dimension {rho.shape[0]} does not match block dimension {self.blocks.n}")
        if not validate_unitarity(self.blocks):
            raise ValidationError(
                f"assembled joint operator is not unitary within {VALIDATION_ATOL:.0e}")
        object.__setattr__(self, "rho_d0", _frozen_array(rho))

    @property
    def n(self) -> int:
        return self.blocks.n

    @cached_property
    def kernel(self) -> BranchKernel:
        """Branch quantities, computed on first use so generation stays cheap."""
        return branch_kernel(self.blocks, self.s, self.rho_d0)

    def to_dict(self) -> dict:
        """Serialize to the documented JSON schema (row-major [re, im] pairs)."""
        return {
            "s": float(self.s),
            "phi": float(self.phi),
            "n": self.n,
            "rho_d0": matrix_to_pairs(self.rho_d0),
            "blocks": {
                "vpp": matrix_to_pairs(self.blocks.vpp),
                "vpm": matrix_to_pairs(self.blocks.vpm),
                "vmp": matrix_to_pairs(self.blocks.vmp),
                "vmm": matrix_to_pairs(self.blocks.vmm),
            },
        }


@dataclass(frozen=True)
class EvolutionResult:
    """Output-port data for one instance.

    ``w_plus``/``w_minus`` are the way probabilities, ``c_up``/``c_down`` the
    per-branch contrast factors, ``c`` their inversion-weighted combination,
    and ``bloch_final`` the quanton Bloch vector (x, y, z) after the merger.
    """

    w_plus: float
    w_minus: float
    c_up: complex
    c_down: complex
    c: complex
    bloch_final: np.ndarray = field(repr=False)


def matrix_to_pairs(m) -> list:
    a = linalg.as_square(m)
    return [[float(z.real), float(z.imag)] for z in a.reshape(-1)]


def matrix_from_pairs(pairs, n: int, name: str = "matrix") -> np.ndarray:
    flat = np.asarray(pairs, dtype=float)
    if flat.shape != (n * n, 2):
        raise ValidationError(f"{name} must be a list of {n * n} [re, im] pairs")
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)


def instance_from_dict(d: dict) -> InterferometerInstance:
    """Deserialize an instance from the documented JSON schema."""
    try:
        n = int(d["n"])
        s = float(d["s"])
        phi = float(d["phi"])
        rho = matrix_from_pairs(d["rho_d0"], n, "rho_d0")
        b = d["blocks"]
        blocks = WwmBlocks(
            vpp=matrix_from_pairs(b["vpp"], n, "vpp"),
            vpm=matrix_from_pairs(b["vpm"], n, "vpm"),
            vmp=matrix_from_pairs(b["vmp"], n, "vmp"),
            vmm=matrix_from_pairs(b["vmm"], n, "vmm"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed instance object: {exc}") from exc
    return InterferometerInstance(s=s, blocks=blocks, rho_d0=rho, phi=phi)


def assemble_global_unitary(blocks: WwmBlocks) -> np.ndarray:
    """Assemble the joint 2n x 2n operator from the four marker blocks.

    Unitarity is not asserted here; see :func:`validate_unitarity`.
    """
    top = np.hstack([blocks.vpp, blocks.vpm])
    bottom = np.hstack([-blocks.vmp, blocks.vmm])
    return np.vstack([top, bottom]) / math.sqrt(2.0)


def validate_unitarity(blocks: WwmBlocks) -> bool:
    """True iff the assembled joint operator is unitary within 1e-10."""
    return linalg.is_unitary(assemble_global_unitary(blocks), VALIDATION_ATOL)


def _unitary_pair(u_plus, u_minus) -> tuple[np.ndarray, np.ndarray]:
    up = linalg.as_square(u_plus, "u_plus")
    um = linalg.as_square(u_minus, "u_minus")
    if up.shape != um.shape:
        raise ValidationError("u_plus and u_minus must share the same dimension")
    for name, u in (("u_plus", up), ("u_minus", um)):
        if not linalg.is_unitary(u):
            raise ValidationError(f"{name} is not unitary within {VALIDATION_ATOL:.0e}")
    return up, um


def from_unitary_pair(u_plus, u_minus) -> WwmBlocks:
    """Blocks for a symmetric beam splitter followed by a way-controlled
    unitary marker coupling (U+ on the + way, U- on the - way)."""
    up, um = _unitary_pair(u_plus, u_minus)
    return WwmBlocks(vpp=up, vpm=um, vmp=up, vmm=um)


def from_tilted_pair(theta: float, u_plus, u_minus) -> WwmBlocks:
    """Blocks for an asymmetric beam splitter (mixing angle ``theta``) followed
    by a way-controlled unitary coupling.

    The way probabilities are cos(theta)^2 and sin(theta)^2 for a fully
    polarized quanton, independent of the marker state, so the predictability
    is |cos(2 theta)| by construction.  theta = pi/4 describes the same
    device as :func:`from_unitary_pair`, but not bit for bit: the block scale
    sqrt(2) cos(pi/4) rounds to 1.0000000000000002.
    """
    up, um = _unitary_pair(u_plus, u_minus)
    c = math.sqrt(2.0) * math.cos(theta)
    d = math.sqrt(2.0) * math.sin(theta)
    return WwmBlocks(vpp=c * up, vpm=d * um, vmp=d * up, vmm=c * um)


def from_global_unitary(u) -> WwmBlocks:
    """Invert :func:`assemble_global_unitary` for a given joint unitary."""
    a = linalg.as_square(u, "u")
    if a.shape[0] % 2 != 0:
        raise ValidationError(f"joint operator must have even dimension, got {a.shape[0]}")
    if not linalg.is_unitary(a):
        raise ValidationError(f"joint operator is not unitary within {VALIDATION_ATOL:.0e}")
    n = a.shape[0] // 2
    s2 = math.sqrt(2.0)
    return WwmBlocks(
        vpp=s2 * a[:n, :n],
        vpm=s2 * a[:n, n:],
        vmp=-s2 * a[n:, :n],
        vmm=s2 * a[n:, n:],
    )


def contrast_factors(inst: InterferometerInstance) -> tuple[complex, complex, complex]:
    """Per-branch contrast factors and their inversion-weighted combination."""
    k = inst.kernel
    return k.c_up, k.c_down, k.c


def evolve(inst: InterferometerInstance) -> EvolutionResult:
    """Run the instance through splitter+marker, phase shifter, and merger.

    The way probabilities, contrast factors, and final Bloch vector are read
    from the instance's kernel.  Construction enforces unitary blocks and a
    density-matrix rho_d0, so the final joint state (:func:`final_state`) is
    a density matrix; probability normalization and Bloch norm are checked.
    """
    k = inst.kernel
    if abs(k.w_plus + k.w_minus - 1.0) > VALIDATION_ATOL:
        raise ValidationError(f"way probabilities do not sum to one: {k.w_plus + k.w_minus!r}")

    c_up, c_down, c = contrast_factors(inst)
    zy = -np.exp(-1j * inst.phi) * c
    bloch = np.array([k.w_plus - k.w_minus, zy.imag, zy.real])
    if np.linalg.norm(bloch) > 1.0 + VALIDATION_ATOL:
        raise ValidationError("final Bloch vector exceeds unit norm beyond tolerance")

    return EvolutionResult(
        w_plus=k.w_plus,
        w_minus=k.w_minus,
        c_up=c_up,
        c_down=c_down,
        c=c,
        bloch_final=bloch,
    )


def final_state(inst: InterferometerInstance) -> np.ndarray:
    """Final joint 2n x 2n state by the direct matrix route.

    Conjugates the initial product state by the assembled joint operator and
    then by the quanton optics: the phase shifter exp(-i phi sigma_z / 2)
    followed by the merger exp(-i pi sigma_y / 4), identity on the marker.
    It shares no arithmetic with the kernel, so tests use it as an
    independent oracle for :func:`evolve` and :func:`conditional_wwm_states`.
    """
    r = 1.0 / math.sqrt(2.0)
    optics = np.array([[r, -r], [r, r]]) @ np.diag([np.exp(-0.5j * inst.phi), np.exp(0.5j * inst.phi)])
    m = np.kron(optics, np.eye(inst.n)) @ assemble_global_unitary(inst.blocks).conj().T
    rho_q0 = np.diag([(1.0 + inst.s) / 2.0, (1.0 - inst.s) / 2.0])
    return m @ np.kron(rho_q0, inst.rho_d0) @ m.conj().T


def conditional_wwm_states(
    inst: InterferometerInstance,
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Way probabilities and the marker states conditioned on each way.

    Returns ``(w_plus, rho_plus, w_minus, rho_minus)`` with the conditional
    states normalized to unit trace.  Raises :class:`DegenerateBranchError`
    when either way has (numerically) zero probability, since the conditional
    state on that branch is undefined.
    """
    k = inst.kernel
    if k.wp_tr < DEGENERATE_WEIGHT or k.wm_tr < DEGENERATE_WEIGHT:
        raise DegenerateBranchError(
            f"degenerate branch: w+ = {k.wp_tr!r}, w- = {k.wm_tr!r}")
    return k.wp_tr, k.wp_rho / k.wp_tr, k.wm_tr, k.wm_rho / k.wm_tr


def visibility(res: EvolutionResult) -> float:
    """Fringe visibility, the modulus of the combined contrast factor."""
    return abs(res.c)


def predictability(res: EvolutionResult) -> float:
    """A-priori which-way knowledge |w+ - w-|."""
    return abs(res.w_plus - res.w_minus)


def upper_port_probability(inst: InterferometerInstance, phi: float) -> float:
    """Probability of the quanton's upper output state at phase ``phi``.

    Convenience for fringe scans: re-runs the instance at the given phase by
    the direct route and projects the final state onto (1 + sigma_z)/2 on the
    quanton factor.
    """
    shifted = InterferometerInstance(s=inst.s, blocks=inst.blocks, rho_d0=inst.rho_d0, phi=phi)
    return float(reduced_quanton_state(shifted)[0, 0].real)


def reduced_quanton_state(inst: InterferometerInstance) -> np.ndarray:
    """Partial trace of the final joint state over the marker."""
    return np.trace(final_state(inst).reshape(2, inst.n, 2, inst.n), axis1=1, axis2=3)


def conditional_states_from_final(inst: InterferometerInstance) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Conditional marker states extracted projectively from the final joint
    state, used to cross-check :func:`conditional_wwm_states`."""
    n = inst.n
    rho_final = final_state(inst)
    out = []
    for sign in (+1.0, -1.0):
        proj = np.kron((np.eye(2) + sign * SIGMA_X) / 2.0, np.eye(n))
        sub = proj @ rho_final
        w_rho = np.trace(sub.reshape(2, n, 2, n), axis1=0, axis2=2)
        w = float(np.trace(w_rho).real)
        if w < DEGENERATE_WEIGHT:
            raise DegenerateBranchError(f"degenerate branch in projective extraction: w = {w!r}")
        out.extend([w, w_rho / w])
    return tuple(out)
