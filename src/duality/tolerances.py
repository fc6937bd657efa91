"""Named tolerances shared by every module of the package.

The inequality slack tolerance ``measures.SLACK_TOL`` and the thresholds
of ``measures.CHECKS`` live with the checks they gate.
"""

# Construction-time structural checks are held to 1e-12, while checks on
# derived quantities (which accumulate round-off) use 1e-10.
CONSTRUCTION_ATOL = 1e-12
VALIDATION_ATOL = 1e-10

# Branch and spectral weights at or below this are treated as zero.
DEGENERATE_WEIGHT = 1e-12

# An eigenvector's phase is fixed by its first component above this magnitude.
PIVOT_ATOL = 1e-12

# Xi at or below these counts as zero, so chi = D^2/Xi^2 is not formed: the
# generic engine's Xi, and the SQDS closed-form Xi_Q.  The round-off of the
# engine's D^2/Xi^2 grows as 1/Xi: on 14 000 gated n = 2 instances (SQDS
# configurations and tilted Haar pairs, Xi from 1e-9 up, some at the P = R
# tie) chi_closed_dev * Xi stayed below 9e-16, so at Xi > 1e-5 the
# chi_closed_form row's deviation is at most 9e-11 (largest measured 3.7e-11),
# ten times inside its 1e-9.  Gated rows of the default sweeps have Xi >= 0.0155.
XI_ATOL = 1e-5
SQDS_XI_ATOL = 1e-15

# Exact internal identities (pure-state spectrum, spectral recomposition).
IDENTITY_ATOL = 1e-10

# A way operator within this of a multiple of the identity counts as one:
# the regime test (state-independent ways) of the main and chi checks.  Gated
# tilted pairs perturbed by e^{itH}, t up to 6e-11, kept slack_main >= -2.4e-15
# and chi_closed_dev <= 2.3e-10, a margin of four against its 1e-9.
STATE_INDEPENDENT_ATOL = 1e-10

# A marker within this of purity one, |tr rho_d0^2 - 1| <= PURITY_ATOL, counts
# as pure, and at |s| = 1 (exactly) gets the pure-marker rows of
# measures.CHECKS: the internal identities at IDENTITY_ATOL, the two pure
# saturations at 1e-10 and the pure identity at 1e-9.  Their error grows with
# the purity defect: no row failed at a defect of 2e-12, twenty times this
# tolerance, and at 1e-13 the largest pure saturation was 2.4e-13.  Generated
# pure markers lie within 8.9e-16 of one, a hundred times inside it.  Every
# other marker gets the mixing bound, which holds for any marker.  A
# polarized quanton has no tolerance: the identities' error grows as the
# defect of |s| over 4 w+ w-, so s one ulp below one can fail them.
PURITY_ATOL = 1e-13

# A polarized P at or above 1 - SATURATION_ATOL saturates: the |s| = 1 checks
# divide by 1 - P^2, and record such a member as degenerate.  A member whose
# ways both pass DEGENERATE_WEIGHT has 1 - P = 2 min(w+, w-) >= 2e-12, so only
# round-off brings it here.
SATURATION_ATOL = 1e-12
