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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DegenerateBranchError, IdentityError, ValidationError
from .interferometer import (
    InterferometerInstance,
    conditional_wwm_states,
    evolve,
    predictability,
    visibility,
)
from .tolerances import (CONSTRUCTION_ATOL, DEGENERATE_WEIGHT, IDENTITY_ATOL, PURE_S_ATOL,
                         PURITY_ATOL, VALIDATION_ATOL)

# Every inequality in this package is asserted as slack >= -SLACK_TOL; the
# slack itself carries eigenvalue round-off, so exact comparisons are never
# used.
SLACK_TOL = 1e-9


def _clamped_unit(x: float, name: str) -> float:
    if not -SLACK_TOL <= x <= 1.0 + SLACK_TOL:
        raise ValidationError(f"{name} must lie in [0, 1], got {x!r}")
    return min(max(x, 0.0), 1.0)


def _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus):
    if w_plus < 0.0 or w_minus < 0.0:
        raise ValidationError(f"way probabilities must be non-negative, got {w_plus}, {w_minus}")
    if abs(w_plus + w_minus - 1.0) > VALIDATION_ATOL:
        raise ValidationError(f"way probabilities must sum to one, got {w_plus + w_minus!r}")
    rp = linalg.require_density(rho_plus, "rho_plus")
    rm = linalg.require_density(rho_minus, "rho_minus")
    if rp.shape != rm.shape:
        raise ValidationError("conditional states must share the same dimension")
    return rp, rm


def distinguishability(w_plus, rho_plus, w_minus, rho_minus) -> float:
    """Trace norm of w+ rho+ - w- rho-: the best achievable way knowledge."""
    rp, rm = _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus)
    return linalg.trace_norm(w_plus * rp - w_minus * rm)


def quality(rho_plus, rho_minus) -> float:
    """Trace distance between the conditional marker states."""
    rp = linalg.require_density(rho_plus, "rho_plus")
    rm = linalg.require_density(rho_minus, "rho_minus")
    if rp.shape != rm.shape:
        raise ValidationError("conditional states must share the same dimension")
    return 0.5 * linalg.trace_norm(rp - rm)


def xi(p: float, q: float) -> float:
    """Composite way-information measure sqrt(Q^2 + P^2 - Q^2 P^2).

    Symmetric in its arguments and never below max(p, q, p*q); reaches one as
    soon as either argument does.
    """
    p_sq = _clamped_unit(float(p), "p") ** 2
    q_sq = _clamped_unit(float(q), "q") ** 2
    return math.sqrt(p_sq + q_sq - p_sq * q_sq)


def r_measure(w_plus, rho_plus, w_minus, rho_minus, p: float) -> float:
    """Purity-style component of the two-level distinguishability.

    For a two-dimensional marker, D = max(P, R) with
    R^2 = 2 tr(Delta^2) - P^2 and Delta = w+ rho+ - w- rho-.  The formula is
    only asserted for two-level markers, so other dimensions are rejected.
    """
    rp, rm = _validate_conditionals(w_plus, rho_plus, w_minus, rho_minus)
    if rp.shape[0] != 2:
        raise ValidationError(f"r_measure is defined for two-level markers only, got n={rp.shape[0]}")
    delta = w_plus * rp - w_minus * rm
    tr2 = float(np.trace(delta @ delta).real)
    return math.sqrt(max(0.0, 2.0 * tr2 - p * p))


def d_two_level(p: float, r: float) -> float:
    """Two-level distinguishability max(P, R)."""
    if not (-SLACK_TOL <= p <= 1.0 + SLACK_TOL and -SLACK_TOL <= r <= 1.0 + SLACK_TOL):
        raise ValidationError(f"p and r must lie in [0, 1], got {p}, {r}")
    return max(p, r)


def chi_closed_form(d1: float, d2: float, p: float, xi_value: float) -> float:
    """Two-level stringency ratio 1 - 4 d1 d2 p^2 / xi^2.

    ``d1`` and ``d2`` are the eigenvalues of the marker's initial state (see
    the stringency notes in the README); the formula applies to polarized
    quantons with state-independent way probabilities, on the branch where
    the distinguishability is not already saturated by the predictability.
    """
    if d1 < 0.0 or d2 < 0.0:
        raise ValidationError(f"spectral weights must be non-negative, got {d1}, {d2}")
    if abs(d1 + d2 - 1.0) > CONSTRUCTION_ATOL:
        raise ValidationError(f"spectral weights must sum to one, got {d1 + d2!r}")
    pc = _clamped_unit(float(p), "p")
    if xi_value <= 0.0:
        if pc > 0.0:
            raise ValidationError("xi = 0 with p > 0 is inconsistent (xi dominates p)")
        return 1.0
    value = 1.0 - 4.0 * d1 * d2 * pc * pc / (xi_value * xi_value)
    if not -SLACK_TOL <= value <= 1.0 + SLACK_TOL:
        raise ValidationError(f"closed-form chi fell outside [0, 1]: {value!r} (inconsistent inputs)")
    return value


def state_independent_ways(inst: InterferometerInstance, atol: float = IDENTITY_ATOL) -> bool:
    """True iff both way operators are proportional to the identity.

    This is the regime where the way probabilities carry no marker-state
    dependence (asymmetric splitter with way-controlled unitary coupling).
    It is the class on which the stringency result Xi >= D and the two-level
    closed form for chi are enforced; merely requiring the way operators to be
    diagonal is not sufficient (counterexamples exist, see the README).
    """
    n = inst.n
    for op in (inst.kernel.wp_op, inst.kernel.wm_op):
        mean = np.trace(op).real / n
        if np.abs(op - mean * np.eye(n)).max() > atol:
            return False
    return True


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
    """Compute every measure and the named inequality slacks for an instance.

    Slack names: ``o2p`` (V^2 <= 1 - P^2), ``o2q`` (V^2 <= 1 - Q^2),
    ``o2_nuevita`` (V^2 <= (1 - P^2)(1 - Q^2), identically 1 - Xi^2 - V^2),
    ``o1`` (V^2 <= 1 - D^2), and, in the two-level state-independent-way
    regime with a polarized quanton, ``main`` (Xi - D).
    """
    res = evolve(inst)
    w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
    v = visibility(res)
    p = predictability(res)
    q = quality(rho_plus, rho_minus)
    d = distinguishability(w_plus, rho_plus, w_minus, rho_minus)
    xi_value = xi(p, q)

    slacks = {
        "o2p": (1.0 - p * p) - v * v,
        "o2q": (1.0 - q * q) - v * v,
        "o2_nuevita": (1.0 - p * p) * (1.0 - q * q) - v * v,
        "o1": (1.0 - d * d) - v * v,
    }

    r_value = None
    chi_value = None
    if inst.n == 2:
        r_value = r_measure(w_plus, rho_plus, w_minus, rho_minus, p)
        if inst.kernel.polarized and state_independent_ways(inst):
            slacks["main"] = xi_value - d
            if xi_value > 1e-12:
                chi_value = d * d / (xi_value * xi_value)

    return DualityReport(
        v=v,
        p=p,
        q=q,
        d=d,
        xi=xi_value,
        v_bound_d=math.sqrt(max(0.0, 1.0 - d * d)),
        v_bound_xi=math.sqrt(max(0.0, 1.0 - xi_value * xi_value)),
        slacks=slacks,
        r=r_value,
        chi=chi_value,
    )


def _polarized_branch(inst: InterferometerInstance, what: str):
    """(w+, rho+, w-, rho-, P, C) of the branch sign(s) selects at |s| = 1,
    the only branch populated there."""
    if not inst.kernel.polarized:
        raise ValidationError(f"{what} requires |s| = 1, got s = {inst.s}")
    w_plus, rho_plus, w_minus, rho_minus = conditional_wwm_states(inst)
    p = abs(w_plus - w_minus)
    if p >= 1.0 - PURE_S_ATOL:
        raise DegenerateBranchError(f"predictability {p!r} saturates; identity divides by 1 - P^2")
    contrast = inst.kernel.c_up if inst.s >= 0.0 else inst.kernel.c_down
    return w_plus, rho_plus, w_minus, rho_minus, p, contrast


def pure_state_identity_check(inst: InterferometerInstance) -> float:
    """Residual of the pure-preparation identity Q^2 + |C|^2/(1 - P^2) = 1.

    Requires a polarized quanton (|s| = 1) and a pure marker state; the branch
    follows sign(s).  Along the way the half-difference of the conditional
    states is verified to have a (+lambda, -lambda, 0, ...) spectrum, and the
    conditional-state overlap is checked against |C|^2 / (4 w+ w-); failures
    of those internal identities raise :class:`IdentityError`.
    """
    w_plus, rho_plus, w_minus, rho_minus, p, contrast = _polarized_branch(inst, "pure identity")
    purity = float(np.trace(inst.rho_d0 @ inst.rho_d0).real)
    if abs(purity - 1.0) > PURITY_ATOL:
        raise ValidationError(f"pure identity requires a pure marker state, purity = {purity!r}")
    q_branch = 0.5 * linalg.trace_norm(rho_plus - rho_minus)

    gamma = 0.5 * (rho_plus - rho_minus)
    evals = np.linalg.eigvalsh(gamma)
    lam_max, lam_min = evals[-1], evals[0]
    if abs(lam_max + lam_min) > IDENTITY_ATOL:
        raise IdentityError(f"half-difference spectrum is not symmetric: {lam_max!r} vs {lam_min!r}")
    if evals.size > 2 and np.abs(evals[1:-1]).max() > IDENTITY_ATOL:
        raise IdentityError("half-difference of pure conditionals has rank above two")
    if abs(q_branch - 2.0 * abs(lam_max)) > IDENTITY_ATOL:
        raise IdentityError("branch quality disagrees with twice the top eigenvalue")

    cross = float(np.trace(rho_plus @ rho_minus).real)
    expected_cross = abs(contrast) ** 2 / (4.0 * w_plus * w_minus)
    if abs(cross - expected_cross) > IDENTITY_ATOL:
        raise IdentityError(
            f"conditional-state overlap {cross!r} disagrees with contrast form {expected_cross!r}")

    return abs(q_branch ** 2 + abs(contrast) ** 2 / (1.0 - p * p) - 1.0)


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
    p = _polarized_branch(inst, "spectral decomposition of the branch")[4]
    eig = linalg.hermitian_eigen(inst.rho_d0)
    # At |s| = 1 the way operator W+ is half the branch's V+ V+^dagger, and
    # the branch cross operator is V+- V++^dagger or -V-- V-+^dagger.
    way_op = inst.kernel.wp_op
    cross_op = inst.kernel.cross_up if inst.s >= 0.0 else -inst.kernel.cross_down
    one_minus_p2 = 1.0 - p * p
    out = []
    for k in range(inst.n):
        weight = float(eig.values[k])
        if weight <= DEGENERATE_WEIGHT:
            continue
        dk = eig.vectors[:, k]
        contrast_k = complex(dk.conj() @ cross_op @ dk)
        w_plus_k = float((dk.conj() @ way_op @ dk).real)
        out.append(SpectralComponent(
            weight=weight,
            contrast=contrast_k,
            theta_sq=abs(contrast_k) ** 2 / one_minus_p2,
            w_plus=w_plus_k,
            w_minus=1.0 - w_plus_k,
        ))
    return out


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
    _, rho_plus, _, rho_minus, p, contrast = _polarized_branch(inst, "mixing bound")
    q_branch = 0.5 * linalg.trace_norm(rho_plus - rho_minus)

    components = spectral_components(inst)
    recomposed = sum(c.weight * c.contrast for c in components)
    residual = abs(recomposed - contrast)
    if residual > IDENTITY_ATOL:
        raise IdentityError(
            f"spectral recomposition of the contrast factor failed: {recomposed!r} vs {contrast!r}")

    return MixingBound(1.0 - (q_branch ** 2 + abs(contrast) ** 2 / (1.0 - p * p)), residual)
