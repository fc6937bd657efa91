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

Each closed form (Q, Xi, R, D, V, Delta, chi) is written once, in
:class:`SqdsForms`, as a whole-array expression over configurations that
broadcast together; one configuration is a batch of one.  The figures
evaluate all their points at once, each with the bits it has alone.

:func:`sqds_instances` realizes configurations as a stack of generic
instances, on which ``measures.evaluate`` cross-validates the closed forms;
where parametrizations could disagree, the engine is authoritative.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import IdentityError, ValidationError
from .interferometer import tilted_blocks
from .linalg import SIGMA_X, SIGMA_Z, first_failure, label, reals, require_members, squared
from .tolerances import BRANCH_AGREE_ATOL, CONSTRUCTION_ATOL, SQDS_XI_ATOL, TIE_ATOL

FIGURE3_RESOLUTION = 101  # points per side of the fig3 grid
FIGURE4_SAMPLES = 201  # points on the fig4 curve


class SqdsForms:
    """The closed forms of SQDS configurations (p_d, v_d0, p_q, phi_ent): the detecton's
    predictability and initial visibility, the quanton's predictability and the entangling phase.

    Each field is a finite real number or an array of them, and the four broadcast together;
    p_d, v_d0 and p_q lie in [0, 1], and p_d^2 + v_d0^2 <= 1.  The constructor checks this once
    and raises :class:`ValidationError` naming the first failing element; it keeps each field
    as a read-only copy.  Delta and chi check
    their branches on first use, so a caller meets the errors of only the forms it reads.
    """

    def __init__(self, p_d, v_d0, p_q, phi_ent):
        fields = {"p_d": p_d, "v_d0": v_d0, "p_q": p_q, "phi_ent": phi_ent}
        for name, value in fields.items():
            # A frozen copy, so that the checks below hold for as long as the forms do.
            a = fields[name] = np.array(reals(value, name))
            a.setflags(write=False)
            # In range before the Bloch norm squares it, so that no square overflows.
            i = None if name == "phi_ent" else first_failure((a >= 0.0) & (a <= 1.0))
            if i is not None:
                raise ValidationError(f"{label(name, i)} must lie in [0, 1], got {a[i]}")
        try:
            np.broadcast_shapes(*(a.shape for a in fields.values()))
        except ValueError:
            raise ValidationError("p_d, v_d0, p_q and phi_ent must broadcast together, got shapes "
                                  + ", ".join(str(a.shape) for a in fields.values())) from None
        self.p_d, self.v_d0, self.p_q, self.phi_ent = p_d, v_d0, p_q, phi_ent = fields.values()
        norm_sq = squared(p_d) + squared(v_d0)
        i = first_failure(norm_sq <= 1.0 + CONSTRUCTION_ATOL)
        if i is not None:
            raise ValidationError(
                f"detecton Bloch norm exceeds one: {label('p_d^2 + v_d0^2', i)} = {float(norm_sq[i])!r}")
        # math.sin and math.cos: numpy's vectorized loops may round differently from one value alone.
        sin_phi, cos_phi = (np.reshape([f(t) for t in phi_ent.flat], phi_ent.shape) for f in (math.sin, math.cos))
        self.p_sq = squared(p_q)
        self.s_d_norm = np.sqrt(norm_sq)
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
        require_members(~tied | (np.abs(upper - lower) <= BRANCH_AGREE_ATOL), IdentityError,
                        name + "branch expressions disagree at the P = R tie: {!r} vs {!r}", upper, lower)
        return np.where(tied, 0.5 * (upper + lower), np.where(self.p_q > self.r_q, upper, lower))

    @cached_property
    def delta(self):
        """Gap between the squared visibility bounds, V_D^2 - V_Xi^2 = Xi_Q^2 - D_Q^2."""
        return self.by_branch(self.coherent, self.p_sq * self.impurity, "")

    @cached_property
    def chi(self):
        """Stringency ratio D_Q^2 / Xi_Q^2: P_Q^2 / Xi_Q^2 where the predictability dominates,
        otherwise 1 - 4 D1 D2 P_Q^2 / Xi_Q^2; required to equal 1 - Delta / Xi_Q^2."""
        # Xi = 0 (and so P_Q = 0, as Xi >= P_Q) leaves no way information: chi = 1 by convention.
        informed = self.xi_q > SQDS_XI_ATOL
        xi_sq = np.where(informed, squared(self.xi_q), 1.0)
        chi = self.by_branch(np.where(informed, self.p_sq / xi_sq, 1.0),
                             np.where(informed, 1.0 - self.impurity * self.p_sq / xi_sq, 1.0), "chi ")
        closed = 1.0 - self.delta / xi_sq
        require_members(~informed | (np.abs(chi - closed) <= BRANCH_AGREE_ATOL), IdentityError,
                        "chi branch value {!r} disagrees with 1 - Delta/Xi^2 = {!r}", chi, closed)
        return chi


def sqds_instances(forms: SqdsForms) -> tuple:
    """The configurations of ``forms`` as the ``(s, blocks, rho_d0, phi)`` stack that
    ``measures.evaluate`` takes, one two-level-marker instance per element of their
    broadcast shape, in C order.

    The quanton is pure (s = 1); its predictability is realized by the
    splitter mixing angle theta with cos(2 theta) = P_Q.  The coupling is the
    way-controlled pair exp(+- i Phi sigma_z / 2) and the detecton starts with
    Bloch vector (v_d0, 0, p_d).  Nothing is checked here: ``evaluate``
    validates the stack once.
    """
    p_d, v_d0, p_q, phi_ent = (a.ravel() for a in np.broadcast_arrays(forms.p_d, forms.v_d0, forms.p_q, forms.phi_ent))
    u_plus = np.zeros((p_q.size, 2, 2), dtype=complex)
    u_plus[:, 0, 0] = np.exp(0.5j * phi_ent)
    u_plus[:, 1, 1] = u_plus[:, 0, 0].conj()
    rho_d0 = 0.5 * (np.eye(2) + v_d0[:, None, None] * SIGMA_X + p_d[:, None, None] * SIGMA_Z)
    return np.ones(p_q.size), tilted_blocks(0.5 * np.arccos(p_q), u_plus, u_plus.conj()), rho_d0, np.zeros(p_q.size)


def figure3_grid() -> np.ndarray:
    """Delta over the (|s_D|, P_Q) unit square for a balanced detecton at
    maximal coupling (P_D = 0, sin Phi = 1, so Q = |s_D|).

    Returns an array of rows (s_d_norm, p_q, delta), |s_D| as the outer loop.
    """
    values = np.linspace(0.0, 1.0, FIGURE3_RESOLUTION)
    s, p = np.repeat(values, FIGURE3_RESOLUTION), np.tile(values, FIGURE3_RESOLUTION)
    return np.column_stack([s, p, SqdsForms(0.0, s, p, math.pi / 2.0).delta])


def figure4_curve() -> np.ndarray:
    """Squared visibility bounds versus detecton purity at fixed
    V_D0^2 = P_Q^2 = 0.5 and Phi = pi/2.

    The detecton Bloch length runs over [sqrt(0.5), 1]; its z component picks
    up the slack (P_D^2 = |s_D|^2 - 0.5).  Returns rows
    (s_d_norm, v_d_sq, v_xi_sq, v_q_sq) where the first two bound columns are
    1 - D_Q^2 and 1 - Xi_Q^2 and the last is the attained V_Q^2.
    """
    s = np.linspace(math.sqrt(0.5), 1.0, FIGURE4_SAMPLES)
    forms = SqdsForms(np.sqrt(np.maximum(0.0, squared(s) - 0.5)), math.sqrt(0.5), math.sqrt(0.5), math.pi / 2.0)
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
