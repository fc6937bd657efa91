"""Named tolerances shared by every module of the package.

The inequality slack tolerance ``measures.SLACK_TOL`` and the sweep's
``sweep.DEVIATION_CHECKS`` thresholds live with the checks they gate.
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
# generic engine's Xi, and the SQDS closed-form Xi_Q.
XI_ATOL = 1e-12
SQDS_XI_ATOL = 1e-15

# Exact internal identities (pure-state spectrum, spectral recomposition).
IDENTITY_ATOL = 1e-10

# |s| must be exactly polarized (to construction tolerance) for the
# pure-branch identities to apply.
PURE_S_ATOL = 1e-12
PURITY_ATOL = 1e-10

# Two branch expressions (P > R versus P <= R) count as tied within TIE_ATOL
# and must then agree within BRANCH_AGREE_ATOL.
TIE_ATOL = 1e-12
BRANCH_AGREE_ATOL = 1e-10
