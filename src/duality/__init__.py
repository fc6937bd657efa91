"""Duality measures for two-way interferometers with a quantum which-way marker.

The package computes and verifies the visibility / which-way-information
trade-off for a generic two-way interferometer: fringe visibility V,
predictability P, marker quality Q, distinguishability D, the composite
measure Xi, and the hierarchy of inequalities relating them.
"""

from .errors import DegenerateBranchError, DualityError, IdentityError, ValidationError
from .interferometer import (
    EvolutionResult,
    InterferometerInstance,
    WwmBlocks,
    assemble_global_unitary,
    conditional_wwm_states,
    evolve,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
    instance_from_dict,
    predictability,
    validate_unitarity,
    visibility,
)
from .linalg import (
    HermitianEigen,
    haar_random_unitary,
    hermitian_eigen,
    random_density,
    trace_norm,
)
from .measures import (
    DualityReport,
    chi_closed_form,
    d_two_level,
    distinguishability,
    hierarchy_report,
    mixed_state_bound_check,
    pure_state_identity_check,
    quality,
    r_measure,
    state_independent_ways,
    xi,
)
from .sqds import (
    SqdsConfig,
    SqdsReport,
    figure3_grid,
    figure4_curve,
    sqds_chi,
    sqds_delta,
    sqds_distinguishability,
    sqds_quality,
    sqds_report,
    sqds_to_generic,
    sqds_visibility,
    sqds_xi,
)
from .sweep import SweepConfig, SweepSummary, generate_instance, run_sweep

__version__ = "0.1.0"
