"""Exception types shared across the package."""


class DualityError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DualityError):
    """An input violates a documented precondition (dimensions, Hermiticity,
    unitarity, density-matrix structure, parameter ranges)."""


class DegenerateBranchError(DualityError):
    """A conditional branch has (numerically) zero probability, so quantities that divide
    by a branch weight are undefined.  ``measures.evaluate`` records it against the instance."""


class IdentityError(DualityError):
    """An internal exact identity failed beyond its tolerance: corrupted inputs or a bug,
    never ordinary round-off.  ``measures.evaluate`` records it against the instance."""
