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
|s| = 1 checks, once: a test that an instance fails is recorded against it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, IdentityError, ValidationError
from .interferometer import (BranchKernel, InterferometerInstance, WwmBlocks, branch_kernel, conditional_states,
                             validate_instances)
from .interferometer import evolve  # noqa: F401  (kept importable from this module)
from .tolerances import (DEGENERATE_WEIGHT, IDENTITY_ATOL, PURITY_ATOL, SATURATION_ATOL, STATE_INDEPENDENT_ATOL,
                         VALIDATION_ATOL, XI_ATOL)

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
    listed: int | None  # the place of its key in summary.json's slack_checks or deviation_checks, if listed
    csv: int | None  # the place of its column among the check columns of instances.csv, if written there


# Every check a sweep runs, in run order; internal_identity fails where evaluate records an IdentityError.
# A slack row whose column hierarchy_reports writes is a slack of the analyze report.  An unlisted slack
# row (listed None) is gated like any other, and is in no default output but a violation.
CHECKS = (
    #     name                      column                    kind         threshold   listed  csv
    Check("o2p",                    "slack_o2p",              "slack",     -SLACK_TOL, 0,      0),
    Check("o2q",                    "slack_o2q",              "slack",     -SLACK_TOL, 1,      1),
    Check("o2_nuevita",             "slack_o2_nuevita",       "slack",     -SLACK_TOL, 2,      2),
    Check("o1",                     "slack_o1",               "slack",     -SLACK_TOL, 3,      3),
    Check("d_two_level",            "d_two_level",            "deviation", 1e-10,      2,      None),
    Check("pure_saturation_xi",     "pure_saturation_xi",     "deviation", 1e-10,      4,      None),
    Check("pure_saturation_d",      "pure_saturation_d",      "deviation", 1e-10,      5,      None),
    Check("d_ceiling",              "d_ceiling_slack",        "slack",     -SLACK_TOL, None,   None),
    Check("internal_identity",      None,                     "error",     None,       None,   None),
    Check("pure_identity",          "pure_identity_residual", "deviation", 1e-9,       0,      6),
    Check("mixing_bound",           "mixing_bound_slack",     "slack",     -SLACK_TOL, 5,      7),
    Check("contrast_recomposition", "contrast_recomposition", "deviation", IDENTITY_ATOL, 3,    None),
    Check("main",                   "slack_main",             "slack",     -SLACK_TOL, 4,      4),
    Check("chi_closed_form",        "chi_closed_dev",         "deviation", 1e-9,       1,      5),
)


def _modulus(z):
    """``abs(z)`` with the rounding of Python's complex ``abs``."""
    return np.hypot(z.real, z.imag)


def _float_or_array(a):
    """A Python float for one value, the array for several."""
    return float(a) if np.ndim(a) == 0 else a


def _clamped_unit(x: np.ndarray, name: str) -> np.ndarray:
    linalg.require_members((x >= -SLACK_TOL) & (x <= 1.0 + SLACK_TOL), ValidationError,
                           name + " must lie in [0, 1], got {!r}", x)
    return np.clip(x, 0.0, 1.0)


def _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus, **numbers) -> list:
    """The checked conditional states and way probabilities, then ``numbers``, all as :func:`linalg.broadcast_reals`."""
    rp = linalg.require_density(rho_plus, "rho_plus")
    rm = linalg.require_density(rho_minus, "rho_minus")
    if rp.shape != rm.shape:
        raise ValidationError("conditional states must share the same dimension")
    w_plus, w_minus, *rest = linalg.broadcast_reals(rp.shape[:-2], w_plus=w_plus, w_minus=w_minus, **numbers)
    linalg.require_members((w_plus >= 0.0) & (w_minus >= 0.0), ValidationError,
                           "way probabilities must be non-negative, got {}, {}", w_plus, w_minus)
    with np.errstate(over="ignore"):  # a sum that overflows is inf, which fails the test
        total = w_plus + w_minus
    linalg.require_members(np.abs(total - 1.0) <= VALIDATION_ATOL, ValidationError,
                           "way probabilities must sum to one, got {!r}", total)
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
    return (np.abs(ops - mean[..., None, None] * np.eye(n)).max(axis=(-2, -1)) <= STATE_INDEPENDENT_ATOL).all(axis=0)


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


def branch_spectra(k: BranchKernel, decompose, failed: dict | None = None) -> BranchSpectra:
    """Solve each eigenproblem of a kernel's instances once.  rho_d0 is
    decomposed where ``decompose`` holds (a bool, or one per instance), as
    the mixing bound and the chi closed form need.  A degenerate branch
    raises :class:`DegenerateBranchError`, or is recorded in ``failed``.
    """
    w_plus, rho_plus, w_minus, rho_minus = conditional_states(k, failed)
    values, vectors = np.zeros(k.rho_d0.shape[:-1]), np.zeros(k.rho_d0.shape, dtype=complex)
    if np.any(decompose):
        values[decompose], vectors[decompose] = linalg._hermitian_eigen(k.rho_d0[decompose])
    return BranchSpectra(rho_plus, rho_minus, np.abs(w_plus - w_minus),
                         *_conditional_spectra(w_plus, rho_plus, w_minus, rho_minus), values, vectors)


def hierarchy_report(inst: InterferometerInstance) -> dict:
    """The report ``duality analyze`` prints for an instance: every measure and the
    slacks of the hierarchy (the README's table of checks gives each relation)."""
    return _report(hierarchy_reports(inst.kernel, branch_spectra(inst.kernel, False)))


def _report(columns: dict) -> dict:
    """The JSON-ready report of one instance from its :func:`hierarchy_reports` columns,
    None for NaN (``r`` off two-level markers, ``chi`` outside the gated regime).  Its
    slacks, "bound minus attained value", are those of the slack rows of :data:`CHECKS`
    whose column the columns hold and is not NaN, in that order."""
    c = {name: None if math.isnan(x) else x for name, x in zip(columns, map(float, columns.values()))}
    slacks = {check.name: c[check.column] for check in CHECKS
              if check.kind == "slack" and c.get(check.column) is not None}
    return {**{key: c[key] for key in ("v", "p", "q", "d", "xi", "r", "chi")},
            **{f"v_bound_{key}": math.sqrt(max(0.0, 1.0 - c[key] * c[key])) for key in ("d", "xi")},
            "slacks": slacks}


def hierarchy_reports(k: BranchKernel, sp: BranchSpectra) -> dict:
    """The measures of :func:`hierarchy_report` for every instance of a kernel,
    as columns with the kernel's leading shape: v, p, q, d, xi, r, chi,
    xi_minus_d and the slacks ``slack_<name>``, named as the CSV's.

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
    }


def deviations(rep: dict, sp: BranchSpectra, pure_polarized: np.ndarray) -> dict:
    """The exact relations a sweep gates, as columns beside the
    :func:`hierarchy_reports` columns ``rep`` (with a leading axis), NaN where
    one does not apply: |max(P, R) - D| on two-level markers; |V^2 + Xi^2 - 1|
    and |D - Xi|, zero where ``pure_polarized`` marks a pure marker and a
    polarized quanton; the ceiling slack P + Q - PQ - D of every instance;
    |chi - its closed form|, P^2/Xi^2 where P > R, else the chi closed form of
    the rho_d0 spectrum that ``sp`` must hold.  The two are equal at P = R, so
    the branch needs no tie tolerance."""
    p, r, xi_value, chi = rep["p"], rep["r"], rep["xi"], rep["chi"]
    closed = np.full(np.shape(chi), np.nan)
    by_p = ~np.isnan(chi) & (p > r)
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
        "d_ceiling_slack": p + rep["q"] - p * rep["q"] - rep["d"],
        "chi_closed_dev": np.abs(chi - closed),
    }


def _polarized(inst: InterferometerInstance, decompose: bool, what: str) -> tuple:
    """The kernel and :func:`branch_spectra` of an instance that ``what`` requires to be polarized."""
    k = inst.kernel
    sp = branch_spectra(k, decompose)
    if not k.polarized:
        raise ValidationError(f"{what} requires |s| = 1, got s = {k.s}")
    return k, sp


def _polarized_branches(k: BranchKernel, sp: BranchSpectra, failed: dict | None) -> tuple:
    """The contrast factor C of the branch sign(s) selects at |s| = 1, the only branch
    populated there, for every instance of a polarized kernel, and its spectra ``sp``
    with NaN for a P that saturates, which fails: a later 1 - P^2 divides nothing by zero."""
    unsaturated = sp.p < 1.0 - SATURATION_ATOL
    linalg.require_members(unsaturated, DegenerateBranchError,
                           "predictability {!r} saturates; identity divides by 1 - P^2", sp.p, failed=failed)
    if not unsaturated.all():
        sp = sp._replace(p=np.where(unsaturated, sp.p, np.nan))
    return np.where(k.s >= 0.0, k.c_up, k.c_down), sp


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
    return float(pure_identities(*_polarized(inst, False, "pure identity"))["pure_identity_residual"])


def pure_identities(k: BranchKernel, sp: BranchSpectra, failed: dict | None = None) -> dict:
    """:func:`pure_state_identity_check` of every instance of a polarized kernel and
    its spectra ``sp``, whose markers are pure, as the column ``pure_identity_residual``;
    a test that an instance fails raises, or is recorded in ``failed``
    (:func:`linalg.require_members`)."""
    contrast, sp = _polarized_branches(k, sp, failed)
    c_sq = linalg.squared(_modulus(contrast))

    # The spectrum of 0.5 (rho+ - rho-), halved exactly from that of rho+ - rho-.
    evals = 0.5 * sp.diff
    lam_max, lam_min = evals[..., -1], evals[..., 0]
    linalg.require_members(np.abs(lam_max + lam_min) <= IDENTITY_ATOL, IdentityError,
                           "half-difference spectrum is not symmetric: {!r} vs {!r}", lam_max, lam_min, failed=failed)
    linalg.require_members(np.abs(evals[..., 1:-1]).max(axis=-1, initial=0.0) <= IDENTITY_ATOL, IdentityError,
                           "half-difference of pure conditionals has rank above two", failed=failed)
    linalg.require_members(np.abs(sp.q - 2.0 * np.abs(lam_max)) <= IDENTITY_ATOL, IdentityError,
                           "branch quality disagrees with twice the top eigenvalue", failed=failed)

    cross = np.trace(sp.rho_plus @ sp.rho_minus, axis1=-2, axis2=-1).real
    expected_cross = c_sq / (4.0 * k.wp_tr * k.wm_tr)
    linalg.require_members(np.abs(cross - expected_cross) <= IDENTITY_ATOL, IdentityError,
                           "conditional-state overlap {!r} disagrees with contrast form {!r}", cross, expected_cross,
                           failed=failed)
    return {"pure_identity_residual": np.abs(_branch_sum(sp, c_sq) - 1.0)}


def spectral_components(inst: InterferometerInstance) -> dict:
    """Decompose the marker state spectrally and evaluate each pure component.

    Returns one list per column, an entry per eigenvector of rho_d0 whose
    weight is above ``DEGENERATE_WEIGHT``: its ``weight``, its branch
    ``contrast`` C_k, ``theta_sq`` and its way probabilities ``w_plus`` and
    ``w_minus``.  ``theta_sq`` is |C_k|^2/(1 - P^2) with the full instance's
    predictability P, as the mixing-bound derivation has it.  It stays within
    [0, 1] when the way probabilities are state independent, but NOT for
    arbitrary valid instances, so it is reported rather than enforced.
    """
    k, sp = _polarized(inst, True, "spectral decomposition of the branch")
    _polarized_branches(k, sp, None)
    contrasts, ways = _eigenvector_elements(k, sp, k.wp_op)
    theta_sq = linalg.squared(_modulus(contrasts)) / (1.0 - sp.p * sp.p)[..., None]
    kept = sp.marker_values > DEGENERATE_WEIGHT
    return {name: column[kept].tolist() for name, column in (
        ("weight", sp.marker_values), ("contrast", contrasts), ("theta_sq", theta_sq), ("w_plus", ways.real),
        ("w_minus", 1.0 - ways.real))}


def _eigenvector_elements(k: BranchKernel, sp: BranchSpectra, *ops) -> list:
    """<d_k| op |d_k>, one entry per eigenvector d_k of each rho_d0 of a polarized kernel and its spectra
    ``sp``, built to decompose every rho_d0: of the branch cross operator (the contrasts C_k), then of ``ops``."""
    # At |s| = 1 the way operator W+ is half the branch's V+ V+^dagger, and
    # the branch cross operator is V+- V++^dagger or -V-- V-+^dagger.
    cross_op = np.where(k.s[..., None, None] >= 0.0, k.cross_up, -k.cross_down)
    # Eigenvector k as a contiguous conjugated row and as a strided column,
    # exactly the operands of dk.conj() @ op @ dk on one eigenvector.
    rows = np.ascontiguousarray(linalg.dagger(sp.marker_vectors))[..., :, None, :]
    cols = sp.marker_vectors.swapaxes(-1, -2)[..., :, :, None]
    return [(rows @ op[..., None, :, :] @ cols)[..., 0, 0] for op in (cross_op, *ops)]


def mixed_state_bound_check(inst: InterferometerInstance) -> dict:
    """The mixing bound Q^2 + |C|^2/(1 - P^2) <= 1 for |s| = 1, as the floats
    ``mixing_bound_slack`` and ``contrast_recomposition`` that :data:`CHECKS` reads.

    The marker state may be mixed.  The branch contrast factor is verified to
    recompose from its spectral components (C = sum_k D_k C_k within
    ``IDENTITY_ATOL``); a failure there raises :class:`IdentityError`, and
    the residual is returned beside the slack.  The slack is non-negative up
    to round-off for every valid instance.
    """
    cols = mixing_bounds(*_polarized(inst, True, "mixing bound"))
    residual = cols["contrast_recomposition"]
    linalg.require_members(residual <= IDENTITY_ATOL, IdentityError,
                           "spectral recomposition of the contrast factor failed: residual {!r}", residual)
    return {name: float(column) for name, column in cols.items()}


def mixing_bounds(k: BranchKernel, sp: BranchSpectra, failed: dict | None = None) -> dict:
    """:func:`mixed_state_bound_check` of every instance of a polarized kernel and its spectra ``sp``, as
    the columns ``mixing_bound_slack`` and ``contrast_recomposition``, each gated by the :data:`CHECKS` row
    that reads it.  A saturating P raises, or is recorded in ``failed`` (:func:`linalg.require_members`)."""
    contrast, sp = _polarized_branches(k, sp, failed)
    terms = np.where(sp.marker_values > DEGENERATE_WEIGHT, sp.marker_values * _eigenvector_elements(k, sp)[0], 0.0)
    # Added left to right, in eigenvector order, as a running sum over the components
    # with a non-degenerate weight adds them (np.sum would add pairwise).
    recomposed = np.cumsum(terms, axis=-1)[..., -1]
    return {"mixing_bound_slack": 1.0 - _branch_sum(sp, linalg.squared(_modulus(contrast))),
            "contrast_recomposition": _modulus(recomposed - contrast)}


def evaluate(s, blocks: WwmBlocks, rho_d0, phi) -> tuple[dict, dict]:
    """Validate and measure a stack of N instances, as ``duality verify`` does.

    ``s`` and ``phi`` have shape (N,) beside N stacked (n, n) blocks and marker
    states.  At |s| = 1 a marker that :func:`_purities` counts as pure gets
    the pure identity, any other the mixing bound.  Returns one array of N per
    column (``s``, ``phi``, the :func:`hierarchy_reports` columns and those the
    rows of :data:`CHECKS` read), NaN where a measure or check does not
    apply or was not reached, and ``{position: exception}`` of the instances that fail.
    """
    if not isinstance(blocks, WwmBlocks) or blocks.vpp.ndim != 3:
        got = blocks.vpp.shape if isinstance(blocks, WwmBlocks) else type(blocks).__name__
        raise ValidationError(f"evaluate takes WwmBlocks stacked as (N, n, n), got {got}; measure one "
                              "instance through InterferometerInstance and hierarchy_report")
    s, phi, rho = validate_instances(s, blocks, rho_d0, phi)
    k = branch_kernel(blocks, s, rho, phi)
    cols, errors = _measured(k, _purities(k.rho_d0)[1])
    return {"s": k.s, "phi": k.phi, **cols}, errors


def _measured(k: BranchKernel, pure: np.ndarray) -> tuple[dict, dict]:
    """:func:`evaluate` of a kernel and its pure markers, in one pass: its report and
    deviations, then its |s| = 1 checks on the instances not yet failed.  Each test
    records the instances that fail it, each keeping its first error.  A failed
    instance is NaN in every column of the :data:`CHECKS` rows after ``internal_identity``,
    and a degenerate one in every column: a check applies where its column is not NaN."""
    failed = {}
    # The mixing bound and the chi closed form read rho_d0's spectrum.
    sp = branch_spectra(k, k.polarized & (~pure | (k.n == 2)), failed)
    degenerate = list(failed)
    rep = hierarchy_reports(k, sp)
    cols = {**rep, **deviations(rep, sp, k.polarized & pure)}
    # The check columns the chain has not written yet, NaN until a batch check writes its members' cells.
    cols.update((c.column, np.full(len(pure), np.nan)) for c in CHECKS if c.column and c.column not in cols)
    checked = k.polarized & ~np.isin(np.arange(len(pure)), degenerate)
    for members, batch_checks in ((checked & pure, pure_identities), (checked & ~pure, mixing_bounds)):
        if members.any():
            # A run of consecutive rows, as a lane's instances are, is a slice, which takes views.
            at = np.flatnonzero(members)
            rows = slice(at[0], at[-1] + 1) if at[-1] - at[0] < at.size else at
            tested = {}
            for name, column in batch_checks(k.take(rows), BranchSpectra(*(part[rows] for part in sp)),
                                             tested).items():
                cols[name][rows] = column
            failed.update((int(at[i]), exc) for i, exc in tested.items())
    if failed:
        stopped = {c.column for c in CHECKS[[c.kind for c in CHECKS].index("error") + 1:]}
        for name, column in cols.items():
            column[list(failed) if name in stopped else degenerate] = np.nan
    return cols, dict(sorted(failed.items()))
