"""Exception types shared across the package."""


class DualityError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DualityError):
    """An input violates a documented precondition (dimensions, Hermiticity,
    unitarity, density-matrix structure, parameter ranges)."""


class MemberError(DualityError):
    """A test that a batch of instances runs member by member failed.  The
    message names the first failing member; ``failing`` is a boolean mask,
    shaped as the tested batch, that marks every failing member."""

    def __init__(self, message: str, failing=None):
        super().__init__(message)
        self.failing = failing


class DegenerateBranchError(MemberError):
    """A conditional branch has (numerically) zero probability, so quantities
    that divide by a branch weight are undefined."""


class IdentityError(MemberError):
    """An internal exact identity failed beyond its tolerance.  This indicates
    either corrupted inputs or a bug, never ordinary round-off."""
