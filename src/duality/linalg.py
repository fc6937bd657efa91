"""Dense complex linear algebra for small operators, plus seeded random
generators for test instances.

Everything here works on plain ``numpy`` complex arrays.  Matrices are dense
and row-major; dimensions in this package stay below ~16, so there is no
attempt at sparse or blocked storage.  All functions are pure and never
mutate their arguments.

Randomness is produced by numpy's Philox bit generator, a 64-bit counter-based
generator.  A stream is keyed by the pair ``(seed, stream)`` (two unsigned
64-bit words), so independent substreams can be derived per instance and
replayed bit-identically;  see :func:`rng`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .tolerances import CONSTRUCTION_ATOL, VALIDATION_ATOL

_U64 = (1 << 64) - 1

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class HermitianEigen(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``values`` are real eigenvalues in descending order; ``vectors`` holds the
    matching orthonormal eigenvectors as columns, each phase-fixed so that its
    first component of non-negligible magnitude is real and positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array, raising :class:`ValidationError` otherwise."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m, atol: float = CONSTRUCTION_ATOL, name: str = "matrix") -> np.ndarray:
    a = as_square(m, name)
    dev = np.abs(a - a.conj().T).max(initial=0.0)
    if not dev <= atol:
        raise ValidationError(f"{name} is not Hermitian (max deviation {dev:.3e} > {atol:.0e})")
    return a


def is_unitary(m, atol: float = VALIDATION_ATOL) -> bool:
    a = as_square(m)
    return bool(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max() <= atol)


def require_density(rho, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: Hermitian, trace one, positive semidefinite."""
    a = require_hermitian(rho, CONSTRUCTION_ATOL, name)
    tr = np.trace(a).real
    if not abs(tr - 1.0) <= CONSTRUCTION_ATOL:
        raise ValidationError(f"{name} must have unit trace, got {tr!r}")
    evals = np.linalg.eigvalsh(a)
    if evals.min() < -VALIDATION_ATOL:
        raise ValidationError(f"{name} is not positive semidefinite (min eigenvalue {evals.min():.3e})")
    return a


def hermitian_eigen(m) -> HermitianEigen:
    """Full spectral decomposition of a Hermitian matrix.

    Eigenvalues are returned in descending order.  Each eigenvector column is
    normalized so its first component with magnitude above 1e-12 is real and
    positive, making the output deterministic for non-degenerate spectra.
    """
    a = require_hermitian(m)
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(evals)[::-1]
    evals = np.ascontiguousarray(evals[order])
    evecs = np.ascontiguousarray(evecs[:, order])
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            evecs[:, j] = col * (pivot.conjugate() / abs(pivot))
    return HermitianEigen(evals, evecs)


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (trace-class norm)."""
    a = require_hermitian(m)
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for the Philox stream keyed by ``(seed, stream)``.

    Philox is counter-based, so every ``(seed, stream)`` pair is an independent,
    replayable stream regardless of how many draws other streams have made.
    """
    key = np.array([int(seed) & _U64, int(stream) & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitary_from(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a Haar-distributed unitary from an existing generator.

    Ginibre matrix followed by QR, with the R diagonal phase-normalized so the
    distribution is exactly Haar rather than QR-gauge biased.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random ``dim x dim`` unitary, deterministic in ``seed``."""
    return haar_unitary_from(rng(seed), dim)


def density_from(gen: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Draw a random rank-``rank`` density matrix from an existing generator."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    a = gen.standard_normal((dim, rank)) + 1j * gen.standard_normal((dim, rank))
    out = a @ a.conj().T
    out /= np.trace(out).real
    # Exact Hermitian symmetrization; GG^dagger is Hermitian up to round-off.
    return (out + out.conj().T) / 2.0


def random_density(dim: int, rank: int, seed: int) -> np.ndarray:
    """Random density matrix of the requested rank, deterministic in ``seed``."""
    return density_from(rng(seed), dim, rank)
