"""Duality measures for two-way interferometers with a quantum which-way marker.

The package computes and verifies the visibility / which-way-information
trade-off for a generic two-way interferometer: fringe visibility V,
predictability P, marker quality Q, distinguishability D, the composite
measure Xi, and the hierarchy of inequalities relating them.
"""

from .errors import DegenerateBranchError, DualityError, IdentityError, ValidationError
from .interferometer import (
    InterferometerInstance,
    WwmBlocks,
    assemble_global_unitary,
    conditional_wwm_states,
    evolve,
    from_global_unitary,
    from_tilted_pair,
    from_unitary_pair,
    instance_from_dict,
    validate_unitarity,
)
from .linalg import HermitianEigen, hermitian_eigen, trace_norm
from .measures import (
    DualityReport,
    branch_spectra,
    chi_closed_form,
    d_two_level,
    distinguishability,
    evaluate,
    hierarchy_report,
    hierarchy_reports,
    mixed_state_bound_check,
    pure_state_identity_check,
    quality,
    r_measure,
    state_independent_ways,
    xi,
)
from .sqds import SqdsForms, figure3_grid, figure4_curve, sqds_instances, write_figure3_csv, write_figure4_csv
from .sweep import SweepChunk, SweepConfig, SweepSummary, generate_instance, iter_sweep, run_sweep

__version__ = "0.1.0"
