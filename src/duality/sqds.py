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

All closed forms here are cross-validated against the generic engine through
:func:`sqds_to_generic`; where parametrizations could disagree, the engine is
authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentityError, ValidationError
from .interferometer import InterferometerInstance, from_tilted_pair
from .linalg import SIGMA_X, SIGMA_Z
from .tolerances import BRANCH_AGREE_ATOL, CONSTRUCTION_ATOL, SQDS_XI_ATOL, TIE_ATOL


@dataclass(frozen=True)
class SqdsConfig:
    """Bloch data of the detecton, quanton predictability, entangling phase."""

    p_d: float
    v_d0: float
    p_q: float
    phi_ent: float

    def __post_init__(self):
        for name in ("p_d", "v_d0", "p_q", "phi_ent"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p_d < 0.0 or self.v_d0 < 0.0:
            raise ValidationError(f"p_d and v_d0 must be non-negative, got {self.p_d}, {self.v_d0}")
        if self.p_d ** 2 + self.v_d0 ** 2 > 1.0 + CONSTRUCTION_ATOL:
            raise ValidationError(
                f"detecton Bloch norm exceeds one: p_d^2 + v_d0^2 = {self.p_d ** 2 + self.v_d0 ** 2!r}")
        if not 0.0 <= self.p_q <= 1.0:
            raise ValidationError(f"p_q must lie in [0, 1], got {self.p_q}")

    @property
    def s_d_norm(self) -> float:
        """Length of the detecton's initial Bloch vector."""
        return math.sqrt(self.p_d ** 2 + self.v_d0 ** 2)

    @property
    def v_q0(self) -> float:
        """Initial quanton visibility; the quanton is pure."""
        return math.sqrt(max(0.0, 1.0 - self.p_q ** 2))


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
        return {
            "q": self.q, "xi_q": self.xi_q, "r_q": self.r_q, "d_q": self.d_q,
            "v_q": self.v_q, "delta": self.delta, "chi": self.chi,
        }


def sqds_quality(cfg: SqdsConfig) -> float:
    """Marker quality Q = v_d0 |sin Phi|."""
    return cfg.v_d0 * abs(math.sin(cfg.phi_ent))


def sqds_xi(cfg: SqdsConfig) -> float:
    """Composite measure for the quanton: Xi^2 = P_Q^2 + Q^2 (1 - P_Q^2)."""
    q = sqds_quality(cfg)
    return math.sqrt(cfg.p_q ** 2 + q * q * (1.0 - cfg.p_q ** 2))


def sqds_distinguishability(cfg: SqdsConfig) -> tuple[float, float]:
    """(R_Q, D_Q) with R_Q^2 = P_Q^2 |s_D|^2 + Q^2 (1 - P_Q^2), D_Q = max(P_Q, R_Q)."""
    q = sqds_quality(cfg)
    r_sq = cfg.p_q ** 2 * cfg.s_d_norm ** 2 + q * q * (1.0 - cfg.p_q ** 2)
    r_q = math.sqrt(max(0.0, r_sq))
    return r_q, max(cfg.p_q, r_q)


def sqds_visibility(cfg: SqdsConfig) -> float:
    """Quanton fringe visibility V_Q = V_Q0 sqrt(cos^2 Phi + P_D^2 sin^2 Phi)."""
    c, s = math.cos(cfg.phi_ent), math.sin(cfg.phi_ent)
    return cfg.v_q0 * math.sqrt(c * c + cfg.p_d ** 2 * s * s)


def sqds_delta(cfg: SqdsConfig) -> float:
    """Gap between the squared visibility bounds, V_D^2 - V_Xi^2.

    Branches on the comparison of P_Q with R_Q; at a tie both branch
    expressions are evaluated, required to agree within 1e-10, and averaged.
    """
    q = sqds_quality(cfg)
    r_q, _ = sqds_distinguishability(cfg)
    upper = q * q * (1.0 - cfg.p_q ** 2)                       # P_Q > R_Q
    lower = cfg.p_q ** 2 * (1.0 - cfg.s_d_norm ** 2)           # P_Q <= R_Q
    if abs(cfg.p_q - r_q) <= TIE_ATOL:
        if abs(upper - lower) > BRANCH_AGREE_ATOL:
            raise IdentityError(
                f"branch expressions disagree at the P = R tie: {upper!r} vs {lower!r}")
        return 0.5 * (upper + lower)
    return upper if cfg.p_q > r_q else lower


def sqds_chi(cfg: SqdsConfig) -> float:
    """Stringency ratio chi = D_Q^2 / Xi_Q^2 via its branch closed forms.

    On the branch where the predictability dominates, chi = P_Q^2 / Xi^2;
    otherwise chi = 1 - 4 D1 D2 P_Q^2 / Xi^2 with D1 D2 = (1 - |s_D|^2)/4 the
    product of the detecton state's eigenvalues.  Consistency with
    1 - Delta/Xi^2 is enforced internally.
    """
    xi_q = sqds_xi(cfg)
    if xi_q <= SQDS_XI_ATOL:
        if cfg.p_q > 0.0:
            raise ValidationError("xi = 0 with p_q > 0 is inconsistent")
        return 1.0
    xi_sq = xi_q * xi_q
    r_q, _ = sqds_distinguishability(cfg)
    d1d2 = (1.0 - cfg.s_d_norm ** 2) / 4.0
    upper = cfg.p_q ** 2 / xi_sq                               # P_Q > R_Q
    lower = 1.0 - 4.0 * d1d2 * cfg.p_q ** 2 / xi_sq            # P_Q <= R_Q
    if abs(cfg.p_q - r_q) <= TIE_ATOL:
        if abs(upper - lower) > BRANCH_AGREE_ATOL:
            raise IdentityError(
                f"chi branch expressions disagree at the P = R tie: {upper!r} vs {lower!r}")
        chi = 0.5 * (upper + lower)
    else:
        chi = upper if cfg.p_q > r_q else lower
    via_delta = 1.0 - sqds_delta(cfg) / xi_sq
    if abs(chi - via_delta) > BRANCH_AGREE_ATOL:
        raise IdentityError(f"chi branch value {chi!r} disagrees with 1 - Delta/Xi^2 = {via_delta!r}")
    return chi


def sqds_report(cfg: SqdsConfig) -> SqdsReport:
    r_q, d_q = sqds_distinguishability(cfg)
    return SqdsReport(
        q=sqds_quality(cfg),
        xi_q=sqds_xi(cfg),
        r_q=r_q,
        d_q=d_q,
        v_q=sqds_visibility(cfg),
        delta=sqds_delta(cfg),
        chi=sqds_chi(cfg),
    )


def sqds_to_generic(cfg: SqdsConfig) -> InterferometerInstance:
    """Realize the configuration as a generic two-level-marker instance.

    The quanton is pure (s = 1); its predictability is realized by the
    splitter mixing angle theta with cos(2 theta) = P_Q.  The coupling is the
    way-controlled pair exp(+- i Phi sigma_z / 2) and the detecton starts with
    Bloch vector (v_d0, 0, p_d).  The generic engine's (V, P, Q, D) reproduce
    the closed forms of this module on such instances.
    """
    theta = 0.5 * math.acos(min(max(cfg.p_q, 0.0), 1.0))
    half = 0.5 * cfg.phi_ent
    u_plus = np.diag([np.exp(1j * half), np.exp(-1j * half)])
    u_minus = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    rho_d0 = 0.5 * (np.eye(2) + cfg.v_d0 * SIGMA_X + cfg.p_d * SIGMA_Z)
    return InterferometerInstance(
        s=1.0,
        blocks=from_tilted_pair(theta, u_plus, u_minus),
        rho_d0=rho_d0,
        phi=0.0,
    )


def figure3_grid(resolution: int = 101) -> np.ndarray:
    """Delta over the (|s_D|, P_Q) unit square for a balanced detecton at
    maximal coupling (P_D = 0, sin Phi = 1, so Q = |s_D|).

    Returns an array of rows (s_d_norm, p_q, delta), |s_D| as the outer loop.
    """
    if resolution < 2:
        raise ValidationError(f"resolution must be >= 2, got {resolution}")
    values = np.linspace(0.0, 1.0, resolution)
    rows = np.empty((resolution * resolution, 3))
    i = 0
    for s in values:
        for p in values:
            cfg = SqdsConfig(p_d=0.0, v_d0=s, p_q=p, phi_ent=math.pi / 2.0)
            rows[i] = (s, p, sqds_delta(cfg))
            i += 1
    return rows


def figure4_curve(samples: int = 201) -> np.ndarray:
    """Squared visibility bounds versus detecton purity at fixed
    V_D0^2 = P_Q^2 = 0.5 and Phi = pi/2.

    The detecton Bloch length runs over [sqrt(0.5), 1]; its z component picks
    up the slack (P_D^2 = |s_D|^2 - 0.5).  Returns rows
    (s_d_norm, v_d_sq, v_xi_sq, v_q_sq) where the first two bound columns are
    1 - D_Q^2 and 1 - Xi_Q^2 and the last is the attained V_Q^2.
    """
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    v_d0 = math.sqrt(0.5)
    p_q = math.sqrt(0.5)
    s_values = np.linspace(math.sqrt(0.5), 1.0, samples)
    rows = np.empty((samples, 4))
    for i, s in enumerate(s_values):
        p_d = math.sqrt(max(0.0, s * s - 0.5))
        cfg = SqdsConfig(p_d=p_d, v_d0=v_d0, p_q=p_q, phi_ent=math.pi / 2.0)
        _, d_q = sqds_distinguishability(cfg)
        xi_q = sqds_xi(cfg)
        v_q = sqds_visibility(cfg)
        rows[i] = (s, 1.0 - d_q * d_q, 1.0 - xi_q * xi_q, v_q * v_q)
    return rows


def _write_csv(path, header: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


def write_figure3_csv(path, resolution: int = 101) -> np.ndarray:
    rows = figure3_grid(resolution)
    _write_csv(path, "s_d_norm,p_q,delta", rows)
    return rows


def write_figure4_csv(path, samples: int = 201) -> np.ndarray:
    rows = figure4_curve(samples)
    _write_csv(path, "s_d_norm,v_d_sq,v_xi_sq,v_q_sq", rows)
    return rows
