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

import itertools
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, ValidationError
from .tolerances import DEGENERATE_WEIGHT, PURE_S_ATOL, VALIDATION_ATOL


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WwmBlocks:
    """The four marker-space blocks of the joint beam-splitter/marker operator.

    Each block is an ``(n, n)`` matrix, or a stack ``(..., n, n)`` holding the
    blocks of several instances.
    """

    vpp: np.ndarray
    vpm: np.ndarray
    vmp: np.ndarray
    vmm: np.ndarray

    def __post_init__(self):
        mats = [linalg.as_square(m, name) for m, name in
                zip((self.vpp, self.vpm, self.vmp, self.vmm), ("vpp", "vpm", "vmp", "vmm"))]
        if any(m.shape != mats[0].shape for m in mats):
            raise ValidationError("all four blocks must share the same dimension")
        for name, m in zip(("vpp", "vpm", "vmp", "vmm"), mats):
            object.__setattr__(self, name, _frozen_array(m))

    @classmethod
    def adopt(cls, vpp, vpm, vmp, vmm) -> WwmBlocks:
        """Blocks of arrays that no caller holds, such as a block formula's
        results: frozen in place rather than copied, and not checked."""
        blocks = object.__new__(cls)
        for name, m in zip(("vpp", "vpm", "vmp", "vmm"), (vpp, vpm, vmp, vmm)):
            m = np.asarray(m, dtype=complex)
            m.setflags(write=False)
            object.__setattr__(blocks, name, m)
        return blocks

    @property
    def n(self) -> int:
        return self.vpp.shape[-1]


def validate_instances(s, blocks: WwmBlocks, rho_d0, phi) -> np.ndarray:
    """Check instance fields and return ``rho_d0`` as a complex array.

    ``s`` and ``phi`` have the blocks' leading shape: scalars for one
    instance, arrays of shape (N,) beside N stacked blocks and marker states.
    Every instance needs s in [-1, 1], a finite phi, a density-matrix
    ``rho_d0`` of the blocks' dimension, and blocks that assemble into a
    unitary within 1e-10.
    """
    lead = blocks.vpp.shape[:-2]
    s, phi = linalg.reals(s, "inversion s", lead), linalg.reals(phi, "phase phi", lead)
    i = linalg.first_failure(np.abs(s) <= 1.0)
    if i is not None:
        raise ValidationError(f"inversion {linalg.label('s', i)} must lie in [-1, 1], got {s[i]}")
    rho = linalg.require_density(rho_d0, "rho_d0")
    if rho.shape != blocks.vpp.shape:
        raise ValidationError(
            f"rho_d0 dimension {rho.shape[-1]} does not match block dimension {blocks.n}")
    i = linalg.first_failure(validate_unitarity(blocks))
    if i is not None:
        raise ValidationError(
            f"assembled {linalg.label('joint operator', i)} is not unitary within {VALIDATION_ATOL:.0e}")
    return rho


@dataclass(frozen=True)
class BranchKernel:
    """Branch quantities of a stack of instances, computed once.

    Every measure is a function of the way probabilities w+-, the conditional
    marker states rho+- and the contrast factor C, all read from here.  Each
    field carries the instances' leading shape: none for one instance
    (``inst.kernel``), (N,) for a stack, so one instance is a batch of one
    through the same code.  ``s``, ``phi`` and ``rho_d0`` are the instances'
    own fields.

    The way probabilities come by two routes, each feeding its own outputs:
    ``w_plus``/``w_minus`` = tr(rho_d0 W+-) from the way operators
    ``wp_op``/``wm_op``, and ``wp_tr``/``wm_tr``, the traces of the
    unnormalized conditional marker states ``wp_rho``/``wm_rho`` =
    sum V^dagger rho_d0 V.  ``cross_up``/``cross_down`` are V+- V++^dagger and
    V-- V-+^dagger; ``polarized`` is |s| = 1 within ``PURE_S_ATOL``.
    """

    s: np.ndarray
    phi: np.ndarray
    rho_d0: np.ndarray
    wp_op: np.ndarray
    wm_op: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    wp_rho: np.ndarray
    wm_rho: np.ndarray
    wp_tr: np.ndarray
    wm_tr: np.ndarray
    cross_up: np.ndarray
    cross_down: np.ndarray
    c_up: np.ndarray
    c_down: np.ndarray
    c: np.ndarray
    polarized: np.ndarray

    @property
    def n(self) -> int:
        return self.wp_op.shape[-1]

    def take(self, index) -> BranchKernel:
        """The kernel of the instances at ``index`` along the leading axis."""
        return BranchKernel(*_frozen(*(getattr(self, f.name)[index] for f in fields(self))))


def _frozen(*values) -> tuple:
    for v in values:
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return values


def branch_kernel(b: WwmBlocks, s, rho_d0, phi) -> BranchKernel:
    """Evaluate the branch quantities of (stacks of) blocks, inversions,
    marker states and phases; see :class:`BranchKernel` for the shapes."""
    s = np.asarray(s, dtype=float)
    # The weights as complex numbers (w + 0i), as numpy would cast them for
    # the products anyway.
    a = ((1.0 + s) / 4.0).astype(complex)[..., None, None]
    bb = ((1.0 - s) / 4.0).astype(complex)[..., None, None]
    vpp_h, vpm_h, vmp_h, vmm_h = (linalg.dagger(v) for v in (b.vpp, b.vpm, b.vmp, b.vmm))
    wp_op = a * (b.vpp @ vpp_h) + bb * (b.vmp @ vmp_h)
    wm_op = a * (b.vpm @ vpm_h) + bb * (b.vmm @ vmm_h)
    wp_rho = a * (vpp_h @ rho_d0 @ b.vpp) + bb * (vmp_h @ rho_d0 @ b.vmp)
    wm_rho = a * (vpm_h @ rho_d0 @ b.vpm) + bb * (vmm_h @ rho_d0 @ b.vmm)
    cross_up = b.vpm @ vpp_h
    cross_down = b.vmm @ vmp_h

    def trace(m):
        return m.trace(0, -2, -1)

    c_up = trace(rho_d0 @ cross_up)
    c_down = -trace(rho_d0 @ cross_down)
    return BranchKernel(s, np.asarray(phi, dtype=float), rho_d0, *_frozen(
        wp_op, wm_op, trace(rho_d0 @ wp_op).real, trace(rho_d0 @ wm_op).real,
        wp_rho, wm_rho, trace(wp_rho).real, trace(wm_rho).real,
        cross_up, cross_down, c_up, c_down, (1.0 + s) / 2.0 * c_up + (1.0 - s) / 2.0 * c_down,
        np.abs(np.abs(s) - 1.0) <= PURE_S_ATOL))


@dataclass(frozen=True)
class InterferometerInstance:
    """A complete interferometer configuration.

    ``s`` is the quanton inversion (initial state diag((1+s)/2, (1-s)/2));
    the closed interval [-1, 1] is admitted since the fully polarized
    endpoints are the pure-preparation cases used throughout.  ``rho_d0`` is
    the marker's initial density matrix and ``phi`` the phase-shifter angle.
    Construction validates every field, including block unitarity
    (:func:`validate_instances`); it takes one instance, not a stack.
    """

    s: float
    blocks: WwmBlocks
    rho_d0: np.ndarray
    phi: float = 0.0

    def __post_init__(self):
        rho = validate_instances(self.s, self.blocks, self.rho_d0, self.phi)
        if rho.ndim != 2:
            raise ValidationError(f"an instance takes one set of (n, n) blocks, got a stack of shape {rho.shape}")
        object.__setattr__(self, "rho_d0", _frozen_array(rho))

    @property
    def n(self) -> int:
        return self.blocks.n

    @cached_property
    def kernel(self) -> BranchKernel:
        """Branch quantities, computed on first use so generation stays cheap."""
        return branch_kernel(self.blocks, self.s, self.rho_d0, self.phi)

    def to_dict(self) -> dict:
        """Serialize to the documented JSON schema (row-major [re, im] pairs)."""
        b = self.blocks
        return instance_to_dict(self.s, self.phi, self.rho_d0, b.vpp, b.vpm, b.vmp, b.vmm)


def instance_to_dict(s, phi, rho_d0, vpp, vpm, vmp, vmm) -> dict:
    """The documented JSON object of one instance's fields, taken as they
    are (validation is the constructor's job)."""
    return {
        "s": float(s),
        "phi": float(phi),
        "n": vpp.shape[-1],
        "rho_d0": matrix_to_pairs(rho_d0),
        "blocks": {"vpp": matrix_to_pairs(vpp), "vpm": matrix_to_pairs(vpm),
                   "vmp": matrix_to_pairs(vmp), "vmm": matrix_to_pairs(vmm)},
    }


def matrix_to_pairs(m) -> list:
    # A complex array's float view holds each entry's real and imaginary parts, bit for bit.
    return np.ascontiguousarray(linalg.as_square(m)).view(float).reshape(-1, 2).tolist()


def _json_numbers(values: list, name: str) -> list:
    """``values`` as floats, after raising :class:`ValidationError` unless each is a real number
    (each Python type is checked once, before any conversion): a bool or a numeric string is not,
    though ``float`` converts it.  The first offending value names its type in the error."""
    types = set(map(type, values))
    if types <= {float}:
        return values
    bad = {t for t in types if t is bool or not issubclass(t, numbers.Real)}
    if bad:
        first = next(x for x in values if type(x) in bad)
        raise ValidationError(f"{name}: expected a JSON number, got {type(first).__name__}")
    return list(map(float, values))


def _entries(pairs, size: int, name: str) -> list:
    """The entries of one matrix of ``size`` [re, im] pairs, as floats."""
    try:
        # The matrix and each pair are JSON arrays, or tuples or numpy arrays from a Python caller.
        shaped = (len(pairs) == size and set(map(len, pairs)) == {2}
                  and {type(pairs), *map(type, pairs)} <= {list, tuple, np.ndarray})
    except TypeError:  # a number or a 0-d array where a sequence belongs
        shaped = False
    if not shaped:
        raise ValidationError(f"{name} must be a list of {size} [re, im] pairs")
    return _json_numbers(list(itertools.chain.from_iterable(pairs)), f"{name} entries")


_MATRICES = ("rho_d0", "vpp", "vpm", "vmp", "vmm")


def instance_from_dict(d: dict) -> InterferometerInstance:
    """Deserialize an instance from the documented JSON schema.

    ``n`` must be an integer and every other number a JSON number: a bool or
    a string is rejected, not converted.  Every matrix entry must be finite,
    which Python's ``json`` does not ensure (it reads ``NaN`` and
    ``Infinity``).  An error names the first malformed matrix.
    """
    try:
        n = linalg.integer(d["n"], "n", 1)
        s, phi = (_json_numbers([d[name]], name)[0] for name in ("s", "phi"))
        values = list(itertools.chain.from_iterable(
            _entries(d["rho_d0"] if name == "rho_d0" else d["blocks"][name], n * n, name)
            for name in _MATRICES))
        flat = np.array(values, dtype=float).reshape(5, n, n, 2)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed instance object: {exc}") from exc
    entries = flat.reshape(5, -1)
    i = linalg.first_failure(np.isfinite(entries))
    if i is not None:
        raise ValidationError(f"{_MATRICES[i[0]]} entries must be finite, got {entries[i]}")
    # x + 1j*y, not a complex view, which would keep an imaginary -0.0 that x + 1j*y has always made +0.0.
    rho, *blocks = flat[..., 0] + 1j * flat[..., 1]
    return InterferometerInstance(s=s, blocks=WwmBlocks.adopt(*blocks), rho_d0=rho, phi=phi)


def assemble_global_unitary(blocks: WwmBlocks) -> np.ndarray:
    """Assemble the joint 2n x 2n operator (a stack for stacked blocks).

    Unitarity is not asserted here; see :func:`validate_unitarity`.
    """
    top = np.concatenate([blocks.vpp, blocks.vpm], axis=-1)
    bottom = np.concatenate([-blocks.vmp, blocks.vmm], axis=-1)
    return np.concatenate([top, bottom], axis=-2) / math.sqrt(2.0)


def validate_unitarity(blocks: WwmBlocks):
    """Whether the assembled joint operator is unitary within 1e-10: a bool,
    or one per instance for stacked blocks.

    U^dagger U = I holds for the joint operator U of
    :func:`assemble_global_unitary` exactly when its n x n blocks satisfy
    V++^dagger V++ + V-+^dagger V-+ = 2I, V+-^dagger V+- + V--^dagger V-- = 2I
    and V++^dagger V+- - V-+^dagger V-- = 0, twice U^dagger U - I blockwise.
    These are L^dagger L = 2I, R^dagger R = 2I and L^dagger R = 0 for the 2n x n
    L = [V++; -V-+] and R = [V+-; V--], each tested within 2e-10: no 2n x 2n operator is formed.
    """
    left = np.concatenate((blocks.vpp, -blocks.vmp), axis=-2)
    right = np.concatenate((blocks.vpm, blocks.vmm), axis=-2)
    left_h, two = linalg.dagger(left), 2.0 * np.eye(blocks.n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN entries fail the test, without a warning
        dev = np.abs(left_h @ left - two).max(axis=(-2, -1))
        dev = np.maximum(dev, np.abs(linalg.dagger(right) @ right - two).max(axis=(-2, -1)))
        dev = np.maximum(dev, np.abs(left_h @ right).max(axis=(-2, -1)))
    return dev <= 2.0 * VALIDATION_ATOL


def _require_unitary(u, name: str) -> np.ndarray:
    a = linalg.as_square(u, name)
    i = linalg.first_failure(linalg.is_unitary(a))
    if i is not None:
        raise ValidationError(f"{linalg.label(name, i)} is not unitary within {VALIDATION_ATOL:.0e}")
    return a


def _unitary_pair(u_plus, u_minus) -> tuple[np.ndarray, np.ndarray]:
    up = _require_unitary(u_plus, "u_plus")
    um = _require_unitary(u_minus, "u_minus")
    if up.shape != um.shape:
        raise ValidationError("u_plus and u_minus must share the same dimension")
    return up, um


def from_unitary_pair(u_plus, u_minus) -> WwmBlocks:
    """Blocks for a symmetric beam splitter followed by a way-controlled
    unitary marker coupling (U+ on the + way, U- on the - way).

    Like every block constructor here, it also takes stacks of unitaries.
    """
    up, um = _unitary_pair(u_plus, u_minus)
    return pair_blocks(np.array(up, dtype=complex), np.array(um, dtype=complex))


def pair_blocks(up, um) -> WwmBlocks:
    """:func:`from_unitary_pair` without its unitarity check or its copy:
    the blocks are ``up`` and ``um`` themselves, frozen."""
    return WwmBlocks.adopt(vpp=up, vpm=um, vmp=up, vmm=um)


def from_tilted_pair(theta: float, u_plus, u_minus) -> WwmBlocks:
    """Blocks for an asymmetric beam splitter (mixing angle ``theta``) followed
    by a way-controlled unitary coupling.

    The way probabilities are cos(theta)^2 and sin(theta)^2 for a fully
    polarized quanton, independent of the marker state, so the predictability
    is |cos(2 theta)| by construction.  theta = pi/4 describes the same
    device as :func:`from_unitary_pair`, but not bit for bit: the block scale
    sqrt(2) cos(pi/4) rounds to 1.0000000000000002.  ``theta`` is a finite
    real number, or for stacks of unitaries an array of one angle per unitary.
    """
    up, um = _unitary_pair(u_plus, u_minus)
    return tilted_blocks(linalg.reals(theta, "angle theta", up.shape[:-2]), up, um)


def tilted_blocks(theta, up, um) -> WwmBlocks:
    """:func:`from_tilted_pair` without its unitarity check, for an array ``theta`` of floats."""
    # math.cos and math.sin, not their numpy ufuncs, whose vectorized loops
    # may round differently: generated instances must replay bit for bit.
    c = np.reshape([math.sqrt(2.0) * math.cos(t) for t in theta.flat], theta.shape)[..., None, None]
    d = np.reshape([math.sqrt(2.0) * math.sin(t) for t in theta.flat], theta.shape)[..., None, None]
    return WwmBlocks.adopt(vpp=c * up, vpm=d * um, vmp=d * up, vmm=c * um)


def from_global_unitary(u) -> WwmBlocks:
    """Invert :func:`assemble_global_unitary` for a given joint unitary."""
    a = linalg.as_square(u, "u")
    if a.shape[-1] % 2 != 0:
        raise ValidationError(f"joint operator must have even dimension, got {a.shape[-1]}")
    return global_blocks(_require_unitary(a, "joint operator"))


def global_blocks(a) -> WwmBlocks:
    """:func:`from_global_unitary` of an even-dimensional ``a`` without its unitarity check."""
    n = a.shape[-1] // 2
    s2 = math.sqrt(2.0)
    return WwmBlocks.adopt(
        vpp=s2 * a[..., :n, :n],
        vpm=s2 * a[..., :n, n:],
        vmp=-s2 * a[..., n:, :n],
        vmm=s2 * a[..., n:, n:],
    )


def contrast_factors(inst: InterferometerInstance) -> tuple[complex, complex, complex]:
    """Per-branch contrast factors and their inversion-weighted combination."""
    k = inst.kernel
    return complex(k.c_up), complex(k.c_down), complex(k.c)


def evolve(inst: InterferometerInstance) -> np.ndarray:
    """The quanton's Bloch vector (x, y, z) after splitter+marker, phase
    shifter and merger, read from the instance's kernel.

    Construction validated the instance, so the kernel is not checked again.
    """
    k = inst.kernel
    zy = -np.exp(-1j * k.phi) * k.c
    return np.array([k.w_plus - k.w_minus, zy.imag, zy.real])


def conditional_states(k: BranchKernel) -> tuple:
    """Way probabilities and conditional marker states of every instance of a kernel.

    Returns ``(w_plus, rho_plus, w_minus, rho_minus)`` with the conditional
    states normalized to unit trace.  Raises :class:`DegenerateBranchError`,
    marking every instance where either way has (numerically) zero
    probability, since the conditional state on that branch is undefined.
    """
    linalg.require_members((k.wp_tr >= DEGENERATE_WEIGHT) & (k.wm_tr >= DEGENERATE_WEIGHT), DegenerateBranchError,
                           "degenerate branch: w+ = {!r}, w- = {!r}", k.wp_tr, k.wm_tr)
    return (k.wp_tr, k.wp_rho / k.wp_tr[..., None, None],
            k.wm_tr, k.wm_rho / k.wm_tr[..., None, None])


def conditional_wwm_states(
    inst: InterferometerInstance,
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Way probabilities and the marker states conditioned on each way
    (:func:`conditional_states` of the instance's kernel)."""
    w_plus, rho_plus, w_minus, rho_minus = conditional_states(inst.kernel)
    return float(w_plus), rho_plus, float(w_minus), rho_minus
