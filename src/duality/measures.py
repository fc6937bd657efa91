"""Which-way information measures and the duality inequality hierarchy.

Scalar measures for one interferometer instance:

* visibility V: fringe contrast at the output port,
* predictability P: a-priori way knowledge |w+ - w-|,
* quality Q: trace distance between the marker's two conditional states,
* distinguishability D: trace norm of w+ rho+ - w- rho-, the maximum way
  knowledge any marker measurement can extract,
* the composite Xi = sqrt(Q^2 + P^2 - Q^2 P^2), which dominates P, Q and PQ
  and bounds the visibility through V^2 + Xi^2 <= 1.

The module also exposes the proof machinery behind those bounds as executable
checks: the pure-preparation identity Q^2 + V^2/(1-P^2) = 1 and its mixing
bound, and the two-level closed form chi = 1 - 4 D1 D2 P^2 / Xi^2 for the
stringency ratio chi = D^2/Xi^2.

Each formula is one whole-array expression: the batched functions take a
:class:`~duality.interferometer.BranchKernel` of any number of instances and
its :class:`BranchSpectra`, where each eigenproblem is solved once, and return
one column per quantity; each instance-level function is its batched function
on a batch of one.  Xi, max(P, R) and the chi closed form have no function of
numbers of their own: :func:`evaluate` computes them for its ``xi``,
``d_two_level`` and ``chi_closed_dev`` columns.  Each input is validated once,
where it enters (``validate_instances``, and ``quality``,
``distinguishability`` and ``r_measure`` for given conditional states), and
nothing derived from it is checked again.  Columns keep the bits of Python's
scalar arithmetic: squares are ``np.float_power(x, 2.0)``, which rounds as
Python's ``x ** 2`` (libm ``pow``) does and ``x * x`` may not; moduli are
``np.hypot(re, im)``, which rounds as complex ``abs`` does and ``np.abs`` may
not.  :func:`evaluate` runs the whole chain on a stack, from validation to the
|s| = 1 checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, IdentityError, MemberError, ValidationError
from .interferometer import (BranchKernel, InterferometerInstance, WwmBlocks, branch_kernel, conditional_states,
                             validate_instances)
from .interferometer import evolve  # noqa: F401  (kept importable from this module)
from .tolerances import DEGENERATE_WEIGHT, IDENTITY_ATOL, PURE_S_ATOL, PURITY_ATOL, TIE_ATOL, VALIDATION_ATOL, XI_ATOL

# Every inequality in this package is asserted as slack >= -SLACK_TOL; the
# slack itself carries eigenvalue round-off, so exact comparisons are never
# used.
SLACK_TOL = 1e-9


class Check(NamedTuple):
    """One check of the hierarchy, a row of :data:`CHECKS`."""

    name: str
    column: str | None  # the evaluate column it reads, NaN where the check does not apply
    kind: str  # "slack", passed at column >= threshold; "deviation", at column <= threshold; or "error"
    threshold: float | None
    listed: int | None  # the place of its key in summary.json's slack_checks or deviation_checks
    csv: int | None  # the place of its column among the check columns of instances.csv, if written there
    report: bool  # a slack of the analyze report


# Every check a sweep runs, in run order; internal_identity fails where evaluate records an IdentityError.
CHECKS = (
    #     name                      column                    kind         threshold   listed  csv   report
    Check("o2p",                    "slack_o2p",              "slack",     -SLACK_TOL, 0,      0,    True),
    Check("o2q",                    "slack_o2q",              "slack",     -SLACK_TOL, 1,      1,    True),
    Check("o2_nuevita",             "slack_o2_nuevita",       "slack",     -SLACK_TOL, 2,      2,    True),
    Check("o1",                     "slack_o1",               "slack",     -SLACK_TOL, 3,      3,    True),
    Check("d_two_level",            "d_two_level",            "deviation", 1e-10,      2,      None, False),
    Check("pure_saturation_xi",     "pure_saturation_xi",     "deviation", 1e-10,      4,      None, False),
    Check("pure_saturation_d",      "pure_saturation_d",      "deviation", 1e-10,      5,      None, False),
    Check("internal_identity",      None,                     "error",     None,       None,   None, False),
    Check("pure_identity",          "pure_identity_residual", "deviation", 1e-9,       0,      6,    False),
    Check("mixing_bound",           "mixing_bound_slack",     "slack",     -SLACK_TOL, 5,      7,    False),
    Check("contrast_recomposition", "contrast_recomposition", "deviation", 1e-10,      3,      None, False),
    Check("main",                   "slack_main",             "slack",     -SLACK_TOL, 4,      4,    True),
    Check("chi_closed_form",        "chi_closed_dev",         "deviation", 1e-9,       1,      5,    False),
)


def _modulus(z):
    """``abs(z)`` with the rounding of Python's complex ``abs``."""
    return np.hypot(z.real, z.imag)


def _float_or_array(a):
    """A Python float for one value, the array for several."""
    return float(a) if np.ndim(a) == 0 else a


def _numbers(lead: tuple = (), **named) -> list:
    """The ``named`` numbers of one call as :func:`linalg.reals` arrays that broadcast together and with ``lead``."""
    arrays = [linalg.reals(value, name) for name, value in named.items()]
    shapes = {shape for shape in (lead, *(a.shape for a in arrays)) if shape}  # () broadcasts with any shape
    if len(shapes) > 1:  # not for the package's own calls, which pass one shape
        try:
            np.broadcast_shapes(*shapes)
        except ValueError:
            raise ValidationError(f"{', '.join(named)} must broadcast together, got shapes {sorted(shapes)}") from None
    return arrays


def _clamped_unit(x: np.ndarray, name: str) -> np.ndarray:
    i = linalg.first_failure((x >= -SLACK_TOL) & (x <= 1.0 + SLACK_TOL))
    if i is not None:
        raise ValidationError(f"{name} must lie in [0, 1], got {float(x[i])!r}")
    return np.clip(x, 0.0, 1.0)


def _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus, **numbers) -> list:
    """The checked conditional states and way probabilities, then ``numbers``, all as :func:`_numbers`."""
    rp = linalg.require_density(rho_plus, "rho_plus")
    rm = linalg.require_density(rho_minus, "rho_minus")
    if rp.shape != rm.shape:
        raise ValidationError("conditional states must share the same dimension")
    w_plus, w_minus, *rest = _numbers(rp.shape[:-2], w_plus=w_plus, w_minus=w_minus, **numbers)
    if linalg.first_failure((w_plus >= 0.0) & (w_minus >= 0.0)) is not None:
        raise ValidationError(f"way probabilities must be non-negative, got {w_plus}, {w_minus}")
    with np.errstate(over="ignore"):  # a sum that overflows is inf, which fails the test
        i = linalg.first_failure(np.abs(w_plus + w_minus - 1.0) <= VALIDATION_ATOL)
        if i is not None:
            raise ValidationError(f"way probabilities must sum to one, got {float((w_plus + w_minus)[i])!r}")
    return [rp, rm, w_plus, w_minus, *rest]


def distinguishability(w_plus, rho_plus, w_minus, rho_minus):
    """Trace norm of w+ rho+ - w- rho-: the best achievable way knowledge.

    Takes one pair of conditional states, or stacks of them with arrays of
    way probabilities, and then returns one value per instance.
    """
    rp, rm, w_plus, w_minus = _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus)
    return _float_or_array(_conditional_spectra(w_plus, rp, w_minus, rm)[3])


def quality(rho_plus, rho_minus):
    """Trace distance between the conditional marker states (or stacks of them)."""
    rp, rm, *_ = _validate_conditionals(0.5, rho_plus, 0.5, rho_minus)
    return _float_or_array(_conditional_spectra(0.5, rp, 0.5, rm)[1])


def _xi(p, q):
    p_sq, q_sq = linalg.squared(np.clip(p, 0.0, 1.0)), linalg.squared(np.clip(q, 0.0, 1.0))
    return _float_or_array(np.sqrt(p_sq + q_sq - p_sq * q_sq))


def r_measure(w_plus, rho_plus, w_minus, rho_minus, p):
    """Purity-style component of the two-level distinguishability.

    For a two-dimensional marker, D = max(P, R) with
    R^2 = 2 tr(Delta^2) - P^2 and Delta = w+ rho+ - w- rho-.  The formula is
    only asserted for two-level markers, so other dimensions are rejected.
    Takes stacks as :func:`distinguishability` does.
    """
    rp, rm, w_plus, w_minus, p = _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus, p=p)
    if rp.shape[-1] != 2:
        raise ValidationError(f"r_measure is defined for two-level markers only, got n={rp.shape[-1]}")
    return _r_measure(_conditional_spectra(w_plus, rp, w_minus, rm)[2], _clamped_unit(p, "p"))


def _r_measure(delta, p):
    tr2 = np.trace(delta @ delta, axis1=-2, axis2=-1).real
    return _float_or_array(np.sqrt(np.maximum(0.0, 2.0 * tr2 - p * p)))


def state_independent_ways(inst: InterferometerInstance) -> bool:
    """True iff both way operators are proportional to the identity.

    This is the regime where the way probabilities carry no marker-state
    dependence (asymmetric splitter with way-controlled unitary coupling).
    It is the class on which the stringency result Xi >= D and the two-level
    closed form for chi are enforced; merely requiring the way operators to be
    diagonal is not sufficient (counterexamples exist, see the README).
    """
    return bool(_state_independent(inst.kernel))


def _state_independent(k: BranchKernel) -> np.ndarray:
    n = k.n
    ops = np.stack((k.wp_op, k.wm_op))
    mean = np.trace(ops, axis1=-2, axis2=-1).real / n
    return (np.abs(ops - mean[..., None, None] * np.eye(n)).max(axis=(-2, -1)) <= IDENTITY_ATOL).all(axis=0)


class BranchSpectra(NamedTuple):
    """The eigen-data of a kernel's instances, each eigenproblem solved once
    (:func:`branch_spectra`), with the kernel's leading shape."""

    rho_plus: np.ndarray  # the normalized conditional states
    rho_minus: np.ndarray
    p: np.ndarray  # |w+ - w-| from their traces, the P of the |s| = 1 checks
    diff: np.ndarray  # the eigenvalues of rho+ - rho-, ascending
    q: np.ndarray  # half their absolute sum
    delta: np.ndarray  # w+ rho+ - w- rho-
    d: np.ndarray  # its trace norm
    marker_values: np.ndarray  # hermitian_eigen of rho_d0 where decomposed, zero elsewhere
    marker_vectors: np.ndarray


def _conditional_spectra(w_plus, rho_plus, w_minus, rho_minus) -> tuple:
    """The eigenvalues of rho+ - rho-, Q, the Helstrom operator
    w+ rho+ - w- rho- and its trace norm D, the :class:`BranchSpectra`
    fields ``diff``, ``q``, ``delta`` and ``d``, of given conditional states."""
    diff = np.linalg.eigvalsh(rho_plus - rho_minus)
    delta = np.asarray(w_plus)[..., None, None] * rho_plus - np.asarray(w_minus)[..., None, None] * rho_minus
    return diff, 0.5 * np.abs(diff).sum(axis=-1), delta, np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)


def branch_spectra(k: BranchKernel, decompose) -> BranchSpectra:
    """Solve each eigenproblem of a kernel's instances once.  rho_d0 is
    decomposed where ``decompose`` holds (a bool, or one per instance), as
    the mixing bound and the chi closed form need.  A degenerate branch
    raises :class:`DegenerateBranchError`, marking each instance with one.
    """
    w_plus, rho_plus, w_minus, rho_minus = conditional_states(k)
    values, vectors = np.zeros(k.rho_d0.shape[:-1]), np.zeros(k.rho_d0.shape, dtype=complex)
    if np.any(decompose):
        values[decompose], vectors[decompose] = linalg._hermitian_eigen(k.rho_d0[decompose])
    return BranchSpectra(rho_plus, rho_minus, np.abs(w_plus - w_minus),
                         *_conditional_spectra(w_plus, rho_plus, w_minus, rho_minus), values, vectors)


@dataclass(frozen=True)
class DualityReport:
    """All scalar measures and inequality slacks for one instance.

    ``r`` is present only for two-level markers; ``chi`` only for two-level
    markers with a polarized quanton and state-independent way probabilities.
    Slacks are "bound minus attained value", so every entry is non-negative
    up to round-off for the inequalities proven in this regime.
    """

    v: float
    p: float
    q: float
    d: float
    xi: float
    v_bound_d: float
    v_bound_xi: float
    slacks: dict = field(default_factory=dict)
    r: float | None = None
    chi: float | None = None

    @classmethod
    def of(cls, columns: dict) -> DualityReport:
        """The report of one instance from its :func:`hierarchy_reports` columns."""
        c = {name: None if math.isnan(x) else x for name, x in zip(columns, map(float, columns.values()))}
        slacks = {check.name: c[check.column] for check in CHECKS if check.report and c[check.column] is not None}
        return cls(c["v"], c["p"], c["q"], c["d"], c["xi"], c["v_bound_d"], c["v_bound_xi"], slacks, c["r"], c["chi"])

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "p": self.p,
            "q": self.q,
            "d": self.d,
            "xi": self.xi,
            "r": self.r,
            "chi": self.chi,
            "v_bound_d": self.v_bound_d,
            "v_bound_xi": self.v_bound_xi,
            "slacks": dict(self.slacks),
        }


def hierarchy_report(inst: InterferometerInstance) -> DualityReport:
    """Compute every measure and the slacks of the ``report`` rows of
    :data:`CHECKS` (the README's table of checks gives each relation) for an instance."""
    return DualityReport.of(hierarchy_reports(inst.kernel, branch_spectra(inst.kernel, False)))


def hierarchy_reports(k: BranchKernel, sp: BranchSpectra) -> dict:
    """:func:`hierarchy_report` of every instance of a kernel, as columns
    with the kernel's leading shape, named as the CSV's: v, p, q, d, xi, r,
    chi, xi_minus_d, the slacks ``slack_<name>``, v_bound_d and v_bound_xi.

    NaN marks a measure that does not apply: ``r`` off two-level markers,
    ``slack_main`` (Xi - D) outside the gated regime, and ``chi`` there and
    where Xi <= XI_ATOL.  V and P are computed on the kernel's stacks; Q, D
    and the two-level R are read from the instances' :class:`BranchSpectra`.
    """
    v, p, q, d = _modulus(k.c), np.abs(k.w_plus - k.w_minus), sp.q, sp.d
    xi_value = _xi(p, q)
    xi_minus_d, v_sq, d_sq, xi_sq = xi_value - d, v * v, d * d, xi_value * xi_value
    # The bounds on V^2 from P, Q and D.
    bound_p, bound_q, bound_d = 1.0 - p * p, 1.0 - q * q, 1.0 - d_sq
    # Only a polarized quanton is gated, so a kernel with none skips the test.
    gated = k.polarized & _state_independent(k) if k.n == 2 and k.polarized.any() else False
    has_chi = gated & (xi_value > XI_ATOL)
    return {
        "v": v, "p": p, "q": q, "d": d, "xi": xi_value,
        "r": _r_measure(sp.delta, p) if k.n == 2 else np.full(np.shape(p), np.nan),
        "chi": np.where(has_chi, d_sq / np.where(has_chi, xi_sq, 1.0), np.nan),
        "xi_minus_d": xi_minus_d,
        "slack_o2p": bound_p - v_sq,
        "slack_o2q": bound_q - v_sq,
        "slack_o2_nuevita": bound_p * bound_q - v_sq,
        "slack_o1": bound_d - v_sq,
        "slack_main": np.where(gated, xi_minus_d, np.nan),
        "v_bound_d": np.sqrt(np.maximum(0.0, bound_d)),
        "v_bound_xi": np.sqrt(np.maximum(0.0, 1.0 - xi_sq)),
    }


def deviations(rep: dict, sp: BranchSpectra, pure_polarized: np.ndarray) -> dict:
    """The exact relations a sweep gates, as columns beside the
    :func:`hierarchy_reports` columns ``rep`` (with a leading axis), NaN where
    one does not apply: |max(P, R) - D| on two-level markers; |V^2 + Xi^2 - 1|
    and |D - Xi|, zero where ``pure_polarized`` marks a pure marker and a
    polarized quanton; |chi - its closed form|, P^2/Xi^2 where P > R, else
    the chi closed form of the rho_d0 spectrum that ``sp`` must hold."""
    p, r, xi_value, chi = rep["p"], rep["r"], rep["xi"], rep["chi"]
    closed = np.full(np.shape(chi), np.nan)
    by_p = ~np.isnan(chi) & (p > r + TIE_ATOL)
    closed[by_p] = linalg.squared(p[by_p]) / linalg.squared(xi_value[by_p])
    by_spectrum = ~np.isnan(chi) & ~by_p
    if by_spectrum.any():
        # 1 - 4 D1 D2 P^2/Xi^2, where chi is formed only at Xi > XI_ATOL.
        d1, d2 = sp.marker_values[by_spectrum, 0], np.maximum(sp.marker_values[by_spectrum, 1], 0.0)
        p_at, xi_at = p[by_spectrum], xi_value[by_spectrum]
        closed[by_spectrum] = 1.0 - 4.0 * d1 * d2 * p_at * p_at / (xi_at * xi_at)
    return {
        "d_two_level": np.abs(np.maximum(p, r) - rep["d"]) if sp.delta.shape[-1] == 2 else np.full_like(p, np.nan),
        "pure_saturation_xi": np.where(pure_polarized,
                                       np.abs(linalg.squared(rep["v"]) + linalg.squared(xi_value) - 1.0), np.nan),
        "pure_saturation_d": np.where(pure_polarized, np.abs(rep["xi_minus_d"]), np.nan),
        "chi_closed_dev": np.abs(chi - closed),
    }


def _polarized_branches(k: BranchKernel, sp: BranchSpectra, what: str) -> np.ndarray:
    """The contrast factor C of the branch sign(s) selects at |s| = 1, the
    only branch populated there, whose P ``sp`` holds, for every instance."""
    i = linalg.first_failure(k.polarized)
    if i is not None:
        raise ValidationError(f"{what} requires |s| = 1, got s = {k.s[i]}")
    linalg.require_members(sp.p < 1.0 - PURE_S_ATOL, DegenerateBranchError,
                           "predictability {!r} saturates; identity divides by 1 - P^2", sp.p)
    return np.where(k.s >= 0.0, k.c_up, k.c_down)


def _branch_sum(sp: BranchSpectra, c_sq) -> np.ndarray:
    """Q^2 + |C|^2/(1 - P^2) of the populated branch, which the pure identity
    sets to one and the mixing bound bounds by one."""
    return linalg.squared(sp.q) + c_sq / (1.0 - sp.p * sp.p)


def _purities(rho_d0) -> tuple[np.ndarray, np.ndarray]:
    """Each Hermitian marker's tr rho^2, its summed squared entry moduli, and whether it is within PURITY_ATOL of 1."""
    purity = (rho_d0.real ** 2 + rho_d0.imag ** 2).sum(axis=(-2, -1))
    return purity, np.abs(purity - 1.0) <= PURITY_ATOL


def pure_state_identity_check(inst: InterferometerInstance) -> float:
    """Residual of the pure-preparation identity Q^2 + |C|^2/(1 - P^2) = 1.

    Requires a polarized quanton (|s| = 1) and a pure marker state; the branch
    follows sign(s).  Along the way the half-difference of the conditional
    states is verified to have a (+lambda, -lambda, 0, ...) spectrum, and the
    conditional-state overlap is checked against |C|^2 / (4 w+ w-); failures
    of those internal identities raise :class:`IdentityError`.
    """
    purity, pure = _purities(inst.rho_d0)
    if not pure:
        raise ValidationError(f"pure identity requires a pure marker state, purity = {float(purity)!r}")
    return float(pure_identities(inst.kernel, branch_spectra(inst.kernel, False)))


def pure_identities(k: BranchKernel, sp: BranchSpectra) -> np.ndarray:
    """:func:`pure_state_identity_check` of every instance of a kernel and its
    spectra ``sp``, whose markers are pure; a check that fails raises for the batch, marking its failing members."""
    c_sq = linalg.squared(_modulus(_polarized_branches(k, sp, "pure identity")))

    # The spectrum of 0.5 (rho+ - rho-), halved exactly from that of rho+ - rho-.
    evals = 0.5 * sp.diff
    lam_max, lam_min = evals[..., -1], evals[..., 0]
    linalg.require_members(np.abs(lam_max + lam_min) <= IDENTITY_ATOL, IdentityError,
                           "half-difference spectrum is not symmetric: {!r} vs {!r}", lam_max, lam_min)
    linalg.require_members(np.abs(evals[..., 1:-1]).max(axis=-1, initial=0.0) <= IDENTITY_ATOL, IdentityError,
                           "half-difference of pure conditionals has rank above two")
    linalg.require_members(np.abs(sp.q - 2.0 * np.abs(lam_max)) <= IDENTITY_ATOL, IdentityError,
                           "branch quality disagrees with twice the top eigenvalue")

    cross = np.trace(sp.rho_plus @ sp.rho_minus, axis1=-2, axis2=-1).real
    expected_cross = c_sq / (4.0 * k.wp_tr * k.wm_tr)
    linalg.require_members(np.abs(cross - expected_cross) <= IDENTITY_ATOL, IdentityError,
                           "conditional-state overlap {!r} disagrees with contrast form {!r}", cross, expected_cross)
    return np.abs(_branch_sum(sp, c_sq) - 1.0)


class SpectralComponent(NamedTuple):
    """Per-eigenvector contribution of a mixed marker state.

    ``theta_sq`` uses the full-instance predictability in its denominator,
    matching the mixing-bound derivation.  It is guaranteed to stay within
    [0, 1] when the way probabilities are state independent, but NOT for
    arbitrary valid instances, so it is reported rather than enforced.
    """

    weight: float
    contrast: complex
    theta_sq: float
    w_plus: float
    w_minus: float


def spectral_components(inst: InterferometerInstance) -> list[SpectralComponent]:
    """Decompose the marker state spectrally and evaluate each pure component."""
    k = inst.kernel
    sp = branch_spectra(k, True)
    _polarized_branches(k, sp, "spectral decomposition of the branch")
    columns = (a.tolist() for a in spectral_decompositions(k, sp))
    return [SpectralComponent(*c) for c in zip(*columns) if c[0] > DEGENERATE_WEIGHT]


def spectral_decompositions(k: BranchKernel, sp: BranchSpectra) -> SpectralComponent:
    """:func:`spectral_components` of every instance of a polarized kernel,
    from its spectra ``sp``, built to decompose every rho_d0: each field is
    an array with one entry per eigenvector of each rho_d0, degenerate
    weights included."""
    # At |s| = 1 the way operator W+ is half the branch's V+ V+^dagger, and
    # the branch cross operator is V+- V++^dagger or -V-- V-+^dagger.
    cross_op = np.where(k.s[..., None, None] >= 0.0, k.cross_up, -k.cross_down)
    # Eigenvector k as a contiguous conjugated row and as a strided column,
    # exactly the operands of dk.conj() @ op @ dk on one eigenvector.
    rows = np.ascontiguousarray(linalg.dagger(sp.marker_vectors))[..., :, None, :]
    cols = sp.marker_vectors.swapaxes(-1, -2)[..., :, :, None]
    contrasts = (rows @ cross_op[..., None, :, :] @ cols)[..., 0, 0]
    ways = (rows @ k.wp_op[..., None, :, :] @ cols)[..., 0, 0].real
    return SpectralComponent(weight=sp.marker_values, contrast=contrasts,
                             theta_sq=linalg.squared(_modulus(contrasts)) / (1.0 - sp.p * sp.p)[..., None],
                             w_plus=ways, w_minus=1.0 - ways)


class MixingBound(NamedTuple):
    """Slack of the mixing bound and the residual of the spectral
    recomposition C = sum_k D_k C_k of the branch contrast factor."""

    slack: float
    recomposition: float


def mixed_state_bound_check(inst: InterferometerInstance) -> MixingBound:
    """Slack of the mixing bound Q^2 + |C|^2/(1 - P^2) <= 1 for |s| = 1.

    The marker state may be mixed.  The branch contrast factor is verified to
    recompose from its spectral components (C = sum_k D_k C_k within 1e-10);
    a failure there raises :class:`IdentityError`, and the residual is
    returned beside the slack.  The slack is non-negative up to round-off for
    every valid instance.
    """
    return MixingBound(*map(float, mixing_bounds(inst.kernel, branch_spectra(inst.kernel, True))))


def mixing_bounds(k: BranchKernel, sp: BranchSpectra) -> MixingBound:
    """:func:`mixed_state_bound_check` of every instance of a kernel and its
    spectra ``sp``, as columns; a failed recomposition raises for the
    batch, marking its failing members."""
    contrast = _polarized_branches(k, sp, "mixing bound")
    comps = spectral_decompositions(k, sp)
    # One add per eigenvector, in eigenvector order, as a running sum over
    # the components with a non-degenerate weight adds them.
    recomposed = np.zeros_like(contrast)
    for weight, term in zip(np.moveaxis(comps.weight, -1, 0), np.moveaxis(comps.weight * comps.contrast, -1, 0)):
        recomposed = recomposed + np.where(weight > DEGENERATE_WEIGHT, term, 0.0)
    residual = _modulus(recomposed - contrast)
    linalg.require_members(residual <= IDENTITY_ATOL, IdentityError,
                           "spectral recomposition of the contrast factor failed: {!r} vs {!r}", recomposed, contrast)
    return MixingBound(1.0 - _branch_sum(sp, linalg.squared(_modulus(contrast))), residual)


# The float columns of evaluate: the report's measures and those the checks read.
_MEASURES = ("v", "p", "q", "d", "xi", "r", "chi", "xi_minus_d", "v_bound_d", "v_bound_xi",
             *(check.column for check in CHECKS if check.column))


def evaluate(s, blocks: WwmBlocks, rho_d0, phi) -> tuple[dict, dict]:
    """Validate and measure a stack of N instances, as ``duality verify`` does.

    ``s`` and ``phi`` have shape (N,) beside N stacked (n, n) blocks and marker
    states.  At |s| = 1 a marker that :func:`_purities` counts as pure gets
    the pure identity, any other the mixing bound.  Returns one array of N per
    column (``s``, ``phi`` and ``_MEASURES``), NaN where a measure or check does
    not apply or was not reached, and ``{position: exception}`` of the instances that fail.
    """
    if not isinstance(blocks, WwmBlocks) or blocks.vpp.ndim != 3:
        got = blocks.vpp.shape if isinstance(blocks, WwmBlocks) else type(blocks).__name__
        raise ValidationError(f"evaluate takes WwmBlocks stacked as (N, n, n), got {got}; measure one "
                              "instance through InterferometerInstance and hierarchy_report")
    k = branch_kernel(blocks, s, validate_instances(s, blocks, rho_d0, phi), phi)
    cols, errors = _measured(k, _purities(k.rho_d0)[1])
    return {"s": k.s, "phi": k.phi, **cols}, errors


def _measured(k: BranchKernel, pure: np.ndarray) -> tuple[dict, dict]:
    """:func:`evaluate` of a kernel and its pure markers: its report, then
    its |s| = 1 checks.  A failing test raises a
    :class:`~duality.errors.MemberError` that marks the failing members of
    the batch it tested.  A batch of one keeps what it had; in a batch of
    several, the marked members are measured alone and the others as one
    batch, under the same rule."""
    cols, rows = {}, slice(None)  # rows: the members of the batch under test
    try:
        # The mixing bound and the chi closed form read rho_d0's spectrum.
        sp = branch_spectra(k, k.polarized & (~pure | (k.n == 2)))
        rep = hierarchy_reports(k, sp)
        cols.update(rep, **deviations(rep, sp, k.polarized & pure))
        for members, batch_checks, names in (
                (k.polarized & pure, pure_identities, ("pure_identity_residual",)),
                (k.polarized & ~pure, mixing_bounds, ("mixing_bound_slack", "contrast_recomposition"))):
            cols.update((name, np.full(len(pure), np.nan)) for name in names)
            if members.any():
                # A run of consecutive rows, as a lane's instances are, is a slice, which takes views.
                at = np.flatnonzero(members)
                rows = slice(at[0], at[-1] + 1) if at[-1] - at[0] < at.size else at
                values = batch_checks(k.take(rows), BranchSpectra(*(part[rows] for part in sp)))
                for name, column in zip(names, np.reshape(values, (len(names), -1))):
                    cols[name][rows] = column
        return cols, {}
    except MemberError as exc:
        tested = np.arange(len(pure))[rows]
        if np.shape(exc.failing) != tested.shape or not np.any(exc.failing):
            raise RuntimeError(f"{type(exc).__name__} marks no member of the batch of {tested.size} it tested") from exc
        if len(pure) == 1:
            return {name: cols.get(name, np.full(1, np.nan)) for name in _MEASURES}, {0: exc}
        marked = np.isin(np.arange(len(pure)), tested[exc.failing])
    batches = [[i] for i in np.flatnonzero(marked)] + ([np.flatnonzero(~marked)] if not marked.all() else [])
    out, errors = {name: np.full(len(pure), np.nan) for name in _MEASURES}, {}
    for at in batches:
        part, failed = _measured(k.take(at), pure[at])
        for name in _MEASURES:
            out[name][at] = part[name]
        errors.update((int(at[i]), e) for i, e in failed.items())
    return out, dict(sorted(errors.items()))
