"""Dense complex linear algebra for small operators, plus seeded random
generators for test instances.

Everything here works on plain ``numpy`` complex arrays.  Matrices are dense
and row-major; dimensions in this package stay below ~16, so there is no
attempt at sparse or blocked storage.  The validators, ``trace_norm`` and
``hermitian_eigen`` accept a single ``(n, n)`` matrix or a stack of shape
``(..., n, n)``, and act on each matrix of a stack as they would on it
alone.  All functions are pure and never mutate their arguments.

Randomness is produced by numpy's Philox bit generator, a 64-bit counter-based
generator.  A stream is keyed by the pair ``(seed, stream)`` (two unsigned
64-bit words), so independent substreams can be derived per instance and
replayed bit-identically.  :class:`PhiloxStreams` defines the stream: it keeps
one generator and re-keys it to the start of each stream it is asked for,
which gives the numbers a fresh ``Philox(key=(seed, stream))`` gives without
building one per stream.  :func:`rng` is a fresh generator for one stream.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .tolerances import CONSTRUCTION_ATOL, PIVOT_ATOL, VALIDATION_ATOL

MAX_KEY = (1 << 64) - 1

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class HermitianEigen(NamedTuple):
    """Spectral decomposition of a Hermitian matrix or a stack of them.

    ``values`` are real eigenvalues in descending order along the last axis;
    ``vectors`` holds the matching orthonormal eigenvectors as columns, each
    phase-fixed so that its first component of non-negligible magnitude is
    real and positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def squared(x):
    """``x ** 2`` with the rounding of Python's ``x ** 2`` (libm ``pow``), which ``x * x`` may not have."""
    return np.float_power(x, 2.0)


def require_members(ok, error: type, message: str, *values, name: str = "", failed: dict | None = None) -> None:
    """Fail each member of a batch whose entry of the boolean array ``ok`` is False: ``error``, its
    message ``message`` formatted with ``values``, arrays that broadcast to ``ok``, at that entry.
    Raise the first, whose message reads ``{at}`` as the member's :func:`label` in ``name``; or
    record each in the dict ``failed``, under its flat position, unless one is there.

    Checks are written as "ok" masks, so that NaN, which fails every
    comparison, fails the check.
    """
    # One instance's checks are numpy scalars, whose truth value is cheap;
    # a stack's take one reduction.
    if ok.all() if ok.ndim else ok:
        return
    if failed is None:
        i = np.unravel_index(int(np.argmin(ok)), np.shape(ok))
        raise error(message.format(*(np.broadcast_to(v, np.shape(ok))[i].item() for v in values), at=label(name, i)))
    values = [np.broadcast_to(v, np.shape(ok)).ravel() for v in values]
    for j in np.flatnonzero(~ok).tolist():
        failed.setdefault(j, error(message.format(*(v[j].item() for v in values))))


def label(name: str, index: tuple) -> str:
    """``name`` for a single matrix, ``name[i]`` for matrix ``i`` of a stack."""
    return f"{name}[{', '.join(map(str, index))}]" if index else name


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex square matrix or stack of them, shape (..., n, n).

    Raises :class:`ValidationError` for any other shape or for entries that
    are not numbers.
    """
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric matrix: {exc}") from None
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValidationError(f"{name} must be a square matrix of size >= 1, got shape {a.shape}")
    return a


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_square(m, name)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test, without a warning
        dev = np.abs(a - dagger(a)).max(axis=(-2, -1), initial=0.0)
    require_members(dev <= CONSTRUCTION_ATOL, ValidationError, "{at} is not Hermitian (max deviation {:.3e} > {:.0e})",
                    dev, CONSTRUCTION_ATOL, name=name)
    return a


def is_unitary(m):
    """Whether each matrix is unitary within ``VALIDATION_ATOL``: a bool, or one per matrix of a stack."""
    a = as_square(m)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the test, without a warning
        return np.abs(dagger(a) @ a - np.eye(a.shape[-1])).max(axis=(-2, -1)) <= VALIDATION_ATOL


def require_density(rho, name: str = "rho") -> np.ndarray:
    """Validate density matrices: Hermitian, trace one, positive semidefinite.

    Positivity is certified by one Cholesky factorization of the stack
    shifted by ``VALIDATION_ATOL``: it succeeds when every minimum
    eigenvalue lies above -1e-10, give or take about n·ε.  Only when it
    fails do the eigenvalues decide, by the rule min eigenvalue >= -1e-10,
    and name the first failing matrix.
    """
    a = require_hermitian(rho, name)
    with np.errstate(over="ignore"):  # an overflowing trace is inf, which fails the test
        tr = a.trace(0, -2, -1).real
    require_members(np.abs(tr - 1.0) <= CONSTRUCTION_ATOL, ValidationError, "{at} must have unit trace, got {!r}",
                    tr, name=name)
    try:
        np.linalg.cholesky(a + VALIDATION_ATOL * np.eye(a.shape[-1]))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(a).min(axis=-1)
        require_members(low >= -VALIDATION_ATOL, ValidationError,
                        "{at} is not positive semidefinite (min eigenvalue {:.3e})", low, name=name)
    return a


def hermitian_eigen(m) -> HermitianEigen:
    """Full spectral decomposition of a Hermitian matrix or stack of them.

    Eigenvalues are returned in descending order.  Each eigenvector column is
    normalized so its first component with magnitude above ``PIVOT_ATOL`` is
    real and positive, making the output deterministic for non-degenerate
    spectra.  The pivot's modulus is taken with ``np.hypot``, which rounds as
    Python's complex ``abs`` does; ``np.abs`` on complex arrays does not.
    Raises :class:`ValidationError` for an eigenvalue beyond the float range.
    """
    eigen = _hermitian_eigen(require_hermitian(m))
    require_members(np.isfinite(eigen.values).all(axis=-1), ValidationError,
                    "{at} has an eigenvalue beyond the float range", name="matrix")
    return eigen


def _hermitian_eigen(a: np.ndarray) -> HermitianEigen:
    """:func:`hermitian_eigen` of a validated Hermitian array, unchecked."""
    evals, evecs = np.linalg.eigh(a)
    # eigh returns ascending eigenvalues; reverse to descending.
    evals = np.ascontiguousarray(evals[..., ::-1])
    evecs = evecs[..., ::-1]
    first = np.argmax(np.abs(evecs) > PIVOT_ATOL, axis=-2)[..., None, :]
    pivot = np.take_along_axis(evecs, first, axis=-2)
    return HermitianEigen(evals, evecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag)))


def trace_norm(m):
    """Sum of absolute eigenvalues of a Hermitian matrix (trace-class norm).

    A float for one matrix, an array of one norm per matrix for a stack.
    Raises :class:`ValidationError` for a norm beyond the float range.
    """
    a = require_hermitian(m)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails the test
        norm = np.abs(np.linalg.eigvalsh(a)).sum(axis=-1)
    require_members(np.isfinite(norm), ValidationError, "{at} has a trace norm beyond the float range", name="matrix")
    return float(norm) if a.ndim == 2 else norm


def integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as a Python int in [low, high], or >= low when ``high`` is None.
    A numpy integer passes; a bool or a float does not, though ``int`` would convert it."""
    if type(value) is not int and not isinstance(value, bool) and isinstance(value, numbers.Integral):
        value = int(value)
    if type(value) is not int or value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def reals(value, name: str, lead: tuple | None = None) -> np.ndarray:
    """``value`` as an array of finite floats, of shape ``lead`` if given: the one check of real-number
    input.  An ndarray of a real dtype passes.  Anything else, a Python number or a sequence of them, flat
    or nested, or an object array, passes when the type of each element, checked once per type, is a real
    number's (``numbers.Real``, as ``Fraction``), a bool's excepted; the first other element is named."""
    if isinstance(value, np.ndarray) and value.dtype.kind != "O":
        if value.dtype.kind not in "fiu":
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        objects, real = value, True
    elif type(value) is float or type(value) is list and _real_types(value):
        objects, real = value, True  # the fast case: a float, or a flat list of numbers as JSON gives
    else:
        try:
            objects = np.asarray(value, dtype=object)
        except ValueError as exc:  # nested arrays of mismatched shapes
            raise ValidationError(f"{name} must be a real number: {exc}") from None
        real = _real_types(objects.flat)
    try:
        a = np.asarray(objects, dtype=float) if real else None  # each element as float() converts it
    except OverflowError:  # an int or a Fraction beyond the float range
        a = None
    if a is None:  # name the first element that is no real number or overflows
        for i, x in np.ndenumerate(np.asarray(objects, dtype=object)):
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValidationError(f"{label(name, i)} must be a real number, got {x!r}")
            try:
                float(x)
            except OverflowError:
                raise ValidationError(f"{label(name, i)} must be finite, got a value beyond the float range") from None
    if lead is not None and a.shape != lead:
        raise ValidationError(f"{name} must have leading shape {lead}, got {a.shape}")
    require_members(np.isfinite(a), ValidationError, "{at} must be finite, got {}", a, name=name)
    return a


def _real_types(values) -> bool:
    """Whether every element of ``values`` is a real number other than a bool, by a check of each type."""
    return not any(issubclass(t, bool) or not issubclass(t, numbers.Real) for t in set(map(type, values)))


def broadcast_reals(lead: tuple = (), **named) -> list:
    """The ``named`` numbers of one call as :func:`reals` arrays, after raising
    :class:`ValidationError` unless they broadcast together and with ``lead``."""
    arrays = [reals(value, name) for name, value in named.items()]
    shapes = {shape for shape in (lead, *(a.shape for a in arrays)) if shape}  # () broadcasts with any shape
    if len(shapes) > 1:
        try:
            np.broadcast_shapes(*shapes)
        except ValueError:
            raise ValidationError(f"{', '.join(named)} must broadcast together, got shapes {sorted(shapes)}") from None
    return arrays


class PhiloxStreams:
    """The Philox streams ``(seed, stream)`` of one seed, through one generator.

    ``streams(stream)`` re-keys the generator to the start of stream
    ``(seed, stream)``: key (seed, stream), counter 0, an empty buffer and no
    pending 32-bit half.  It returns the same generator every time, so a
    stream's draws must be taken before the next stream is started.  Philox
    is counter-based, so every stream is independent and replayable however
    many draws other streams have made.  Re-keying costs about a tenth of a
    new ``Philox``, whose construction also hashes OS entropy that the key
    then overrides.
    """

    def __init__(self, seed: int):
        self._key = [integer(seed, "seed", 0, MAX_KEY), 0]
        # The state setter copies these values, so one dict serves every stream.
        self._state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)

    def __call__(self, stream: int) -> np.random.Generator:
        self._key[1] = integer(stream, "stream", 0, MAX_KEY)
        self._bit_generator.state = self._state
        return self._generator


def rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A new generator for the Philox stream keyed by ``(seed, stream)``."""
    return PhiloxStreams(seed)(stream)


def ginibre_from_normals(g: np.ndarray) -> np.ndarray:
    """The Ginibre matrices (g[0] + i g[1]) / sqrt(2) of standard normal
    pairs ``g`` of shape (..., 2, m, m)."""
    z = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    z /= math.sqrt(2.0)
    return z


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from Ginibre matrices ``z`` of shape (..., m, m).

    QR is followed by a phase normalization of the R diagonal, so the
    distribution is exactly Haar rather than QR-gauge biased.  Every step
    acts matrix by matrix, so a stack gives the same bits as its members one
    at a time.  A sweep's draw has its peak memory in this QR, so the sweep
    passes its Ginibre stack alone, the normals it came from already freed.
    """
    q, r = np.linalg.qr(z)
    d = r.diagonal(0, -2, -1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from standard normal pairs ``g`` of shape
    (..., 2, m, m): :func:`haar_from_ginibre` of their Ginibre matrices."""
    return haar_from_ginibre(ginibre_from_normals(g))


def haar_unitary_from(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a Haar-distributed unitary from an existing generator."""
    dim = integer(dim, "dim", 1)
    return haar_from_normals(gen.standard_normal((2, dim, dim)))


def density_from_normals(g: np.ndarray) -> np.ndarray:
    """Density matrices G G^dagger / tr(G G^dagger) from standard normal pairs
    ``g`` of shape (..., 2, dim, rank), with G = g[0] + i g[1]."""
    a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    out = a @ dagger(a)
    out /= out.trace(0, -2, -1).real[..., None, None]
    # Exact Hermitian symmetrization; GG^dagger is Hermitian up to round-off.
    return (out + dagger(out)) / 2.0


def density_from(gen: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Draw a random rank-``rank`` density matrix from an existing generator."""
    rank = integer(rank, "rank", 1, integer(dim, "dim", 1))
    return density_from_normals(gen.standard_normal((2, dim, rank)))
