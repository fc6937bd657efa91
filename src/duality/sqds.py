"""Symmetric quanton-detecton system (SQDS): closed forms and the bridge to
the generic matrix engine.

The SQDS is a pair of two-way interferometers coupled at their central stages
by a dispersive interaction: each qubit acts as the which-way marker of the
other.  The detecton-side phase shifter depends on the quanton's way through
exp(+- i Phi sigma_z / 2), with entangling phase Phi.

Conventions: the coupling rotates the detecton about its z axis, so the
component of the detecton Bloch vector that survives the coupling is z.  The
detecton predictability ``p_d`` therefore maps to the z component and the
initial detecton visibility ``v_d0`` to the transverse Bloch length (reference
transverse phase zero).  The quanton is pure, with predictability ``p_q``.

Each closed form (Q, Xi, R, D, V, Delta, chi) is written once, as a
whole-array expression over configurations that broadcast together.  Each
public ``sqds_*`` function is that expression on a batch of one; the figures
evaluate all their points at once, each with the bits it has alone.

All closed forms here are cross-validated against the generic engine through
:func:`sqds_to_generic`; where parametrizations could disagree, the engine is
authoritative.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IdentityError, ValidationError
from .interferometer import InterferometerInstance, from_tilted_pair
from .linalg import SIGMA_X, SIGMA_Z, first_failure, squared
from .tolerances import BRANCH_AGREE_ATOL, CONSTRUCTION_ATOL, SQDS_XI_ATOL, TIE_ATOL

FIGURE3_RESOLUTION = 101  # points per side of the fig3 grid
FIGURE4_SAMPLES = 201  # points on the fig4 curve


@dataclass(frozen=True)
class SqdsConfig:
    """Bloch data of the detecton, quanton predictability, entangling phase, each a Python float."""

    p_d: float
    v_d0: float
    p_q: float
    phi_ent: float

    def __post_init__(self):
        for name in ("p_d", "v_d0", "p_q", "phi_ent"):
            value = getattr(self, name)
            try:
                number = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
            except OverflowError:  # an integer beyond the float range
                number = math.nan
            if not math.isfinite(number):
                raise ValidationError(f"{name} must be a finite real number, got {value!r}")
            if name != "phi_ent" and not 0.0 <= number <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {number}")
            object.__setattr__(self, name, number)
        if (norm_sq := self.p_d ** 2 + self.v_d0 ** 2) > 1.0 + CONSTRUCTION_ATOL:
            raise ValidationError(f"detecton Bloch norm exceeds one: p_d^2 + v_d0^2 = {norm_sq!r}")

    @property
    def s_d_norm(self) -> float:
        """Length of the detecton's initial Bloch vector."""
        return float(_one(self).s_d_norm)

    @property
    def v_q0(self) -> float:
        """Initial quanton visibility; the quanton is pure."""
        return float(_one(self).v_q0)


@dataclass(frozen=True)
class SqdsReport:
    q: float
    xi_q: float
    r_q: float
    d_q: float
    v_q: float
    delta: float
    chi: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _require_agreement(a, b, checked, message: str) -> None:
    """Raise IdentityError at the first checked element where ``a`` and ``b`` differ by more than BRANCH_AGREE_ATOL."""
    ok = ~checked | (np.abs(a - b) <= BRANCH_AGREE_ATOL)
    i = first_failure(ok)
    if i is not None:
        raise IdentityError(message.format(float(np.broadcast_to(a, ok.shape)[i]),
                                           float(np.broadcast_to(b, ok.shape)[i])))


class _Forms:
    """The closed forms on arrays of (p_d, v_d0, p_q, phi_ent) that broadcast together.  Delta and chi
    check their branches on first use, so a caller meets the errors of only the forms it reads."""

    def __init__(self, p_d, v_d0, p_q, phi_ent):
        # math.sin and math.cos: numpy's vectorized loops may round differently from one value alone.
        sin_phi, cos_phi = (np.reshape([f(t) for t in np.ravel(phi_ent)], np.shape(phi_ent))
                            for f in (math.sin, math.cos))
        self.p_q, self.p_sq = p_q, squared(p_q)
        self.s_d_norm = np.sqrt(squared(p_d) + squared(v_d0))
        self.impurity = 1.0 - squared(self.s_d_norm)  # 4 D1 D2, D1 and D2 the detecton state's eigenvalues
        self.v_q0 = np.sqrt(np.maximum(0.0, 1.0 - self.p_sq))
        self.q = v_d0 * np.abs(sin_phi)
        self.coherent = squared(self.q) * (1.0 - self.p_sq)  # Q^2 (1 - P_Q^2)
        self.xi_q = np.sqrt(self.p_sq + self.coherent)
        self.r_q = np.sqrt(np.maximum(0.0, self.p_sq * squared(self.s_d_norm) + self.coherent))
        self.d_q = np.maximum(p_q, self.r_q)
        self.v_q = self.v_q0 * np.sqrt(squared(cos_phi) + squared(p_d) * squared(sin_phi))

    def by_branch(self, upper, lower, name: str):
        """``upper`` where P_Q > R_Q, ``lower`` where P_Q < R_Q, and at a tie their mean, if they agree."""
        tied = np.abs(self.p_q - self.r_q) <= TIE_ATOL
        _require_agreement(upper, lower, tied, name + "branch expressions disagree at the P = R tie: {!r} vs {!r}")
        return np.where(tied, 0.5 * (upper + lower), np.where(self.p_q > self.r_q, upper, lower))

    @cached_property
    def delta(self):
        return self.by_branch(self.coherent, self.p_sq * self.impurity, "")

    @cached_property
    def chi(self):
        # Xi = 0 (and so P_Q = 0, as Xi >= P_Q) leaves no way information: chi = 1 by convention.
        informed = self.xi_q > SQDS_XI_ATOL
        xi_sq = np.where(informed, squared(self.xi_q), 1.0)
        chi = self.by_branch(np.where(informed, self.p_sq / xi_sq, 1.0),
                             np.where(informed, 1.0 - self.impurity * self.p_sq / xi_sq, 1.0), "chi ")
        _require_agreement(chi, 1.0 - self.delta / xi_sq, informed,
                           "chi branch value {!r} disagrees with 1 - Delta/Xi^2 = {!r}")
        return chi


def _one(cfg: SqdsConfig) -> _Forms:
    """The closed forms of one configuration: a batch of one."""
    return _Forms(cfg.p_d, cfg.v_d0, cfg.p_q, cfg.phi_ent)


def sqds_quality(cfg: SqdsConfig) -> float:
    """Marker quality Q = v_d0 |sin Phi|."""
    return float(_one(cfg).q)


def sqds_xi(cfg: SqdsConfig) -> float:
    """Composite measure for the quanton: Xi^2 = P_Q^2 + Q^2 (1 - P_Q^2)."""
    return float(_one(cfg).xi_q)


def sqds_distinguishability(cfg: SqdsConfig) -> tuple[float, float]:
    """(R_Q, D_Q) with R_Q^2 = P_Q^2 |s_D|^2 + Q^2 (1 - P_Q^2), D_Q = max(P_Q, R_Q)."""
    forms = _one(cfg)
    return float(forms.r_q), float(forms.d_q)


def sqds_visibility(cfg: SqdsConfig) -> float:
    """Quanton fringe visibility V_Q = V_Q0 sqrt(cos^2 Phi + P_D^2 sin^2 Phi)."""
    return float(_one(cfg).v_q)


def sqds_delta(cfg: SqdsConfig) -> float:
    """Gap between the squared visibility bounds, V_D^2 - V_Xi^2.

    Branches on the comparison of P_Q with R_Q; at a tie both branch
    expressions are evaluated, required to agree within 1e-10, and averaged.
    """
    return float(_one(cfg).delta)


def sqds_chi(cfg: SqdsConfig) -> float:
    """Stringency ratio chi = D_Q^2 / Xi_Q^2 via its branch closed forms.

    On the branch where the predictability dominates, chi = P_Q^2 / Xi^2;
    otherwise chi = 1 - 4 D1 D2 P_Q^2 / Xi^2 with D1 D2 = (1 - |s_D|^2)/4 the
    product of the detecton state's eigenvalues.  Consistency with
    1 - Delta/Xi^2 is enforced internally.  Where Xi_Q is zero, chi = 1.
    """
    return float(_one(cfg).chi)


def sqds_report(cfg: SqdsConfig) -> SqdsReport:
    forms = _one(cfg)
    return SqdsReport(*(float(getattr(forms, f.name)) for f in dataclasses.fields(SqdsReport)))


def sqds_to_generic(cfg: SqdsConfig) -> InterferometerInstance:
    """Realize the configuration as a generic two-level-marker instance.

    The quanton is pure (s = 1); its predictability is realized by the
    splitter mixing angle theta with cos(2 theta) = P_Q.  The coupling is the
    way-controlled pair exp(+- i Phi sigma_z / 2) and the detecton starts with
    Bloch vector (v_d0, 0, p_d).  The generic engine's (V, P, Q, D) reproduce
    the closed forms of this module on such instances.
    """
    theta = 0.5 * math.acos(cfg.p_q)
    half = 0.5 * cfg.phi_ent
    u_plus = np.diag([np.exp(1j * half), np.exp(-1j * half)])
    u_minus = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    rho_d0 = 0.5 * (np.eye(2) + cfg.v_d0 * SIGMA_X + cfg.p_d * SIGMA_Z)
    return InterferometerInstance(s=1.0, blocks=from_tilted_pair(theta, u_plus, u_minus), rho_d0=rho_d0, phi=0.0)


def figure3_grid() -> np.ndarray:
    """Delta over the (|s_D|, P_Q) unit square for a balanced detecton at
    maximal coupling (P_D = 0, sin Phi = 1, so Q = |s_D|).

    Returns an array of rows (s_d_norm, p_q, delta), |s_D| as the outer loop.
    """
    values = np.linspace(0.0, 1.0, FIGURE3_RESOLUTION)
    s, p = np.repeat(values, FIGURE3_RESOLUTION), np.tile(values, FIGURE3_RESOLUTION)
    return np.column_stack([s, p, _Forms(0.0, s, p, math.pi / 2.0).delta])


def figure4_curve() -> np.ndarray:
    """Squared visibility bounds versus detecton purity at fixed
    V_D0^2 = P_Q^2 = 0.5 and Phi = pi/2.

    The detecton Bloch length runs over [sqrt(0.5), 1]; its z component picks
    up the slack (P_D^2 = |s_D|^2 - 0.5).  Returns rows
    (s_d_norm, v_d_sq, v_xi_sq, v_q_sq) where the first two bound columns are
    1 - D_Q^2 and 1 - Xi_Q^2 and the last is the attained V_Q^2.
    """
    s = np.linspace(math.sqrt(0.5), 1.0, FIGURE4_SAMPLES)
    forms = _Forms(np.sqrt(np.maximum(0.0, squared(s) - 0.5)), math.sqrt(0.5), math.sqrt(0.5), math.pi / 2.0)
    return np.column_stack(np.broadcast_arrays(s, 1.0 - squared(forms.d_q), 1.0 - squared(forms.xi_q),
                                               squared(forms.v_q)))


def _write_csv(path, header: str, rows: np.ndarray) -> np.ndarray:
    """Write ``rows`` under ``header``, every cell to 12 significant digits, and return them."""
    template = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + template * len(rows) % tuple(rows.ravel().tolist()))
    return rows


def write_figure3_csv(path) -> np.ndarray:
    return _write_csv(path, "s_d_norm,p_q,delta", figure3_grid())


def write_figure4_csv(path) -> np.ndarray:
    return _write_csv(path, "s_d_norm,v_d_sq,v_xi_sq,v_q_sq", figure4_curve())
