import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duality import linalg
from duality.errors import ValidationError
from duality.linalg import (
    SIGMA_X,
    SIGMA_Z,
    haar_random_unitary,
    hermitian_eigen,
    random_density,
    rng,
    trace_norm,
)

I2 = np.eye(2, dtype=complex)


# --- independent oracles -----------------------------------------------------

def eigenvalues_by_bisection(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Roots of det(M - x I) located by sign changes and bisection.

    Independent of any eigensolver: uses only determinant evaluations.  Works
    for Hermitian matrices with distinct eigenvalues (almost surely true for
    the random draws used below).
    """
    dim = m.shape[0]
    radius = float(np.abs(m).sum(axis=1).max()) + 1.0  # Gershgorin bound

    def charpoly(x):
        return np.linalg.det(m - x * np.eye(dim)).real

    xs = np.linspace(-radius, radius, 4001)
    vals = np.array([charpoly(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            flo = vals[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = charpoly(mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.array(roots))[::-1]


def singular_values_by_squaring(m: np.ndarray) -> np.ndarray:
    """Singular values as square roots of the eigenvalues of M^dagger M."""
    return np.sqrt(np.clip(np.linalg.eigvalsh(m.conj().T @ m), 0.0, None))


def random_hermitian(gen: np.random.Generator, dim: int) -> np.ndarray:
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return g + g.conj().T


# --- validation -----------------------------------------------------------------

def test_validation_rejects_nan_as_non_hermitian():
    for entry in ((0, 0), (0, 1)):
        m = np.eye(2, dtype=complex) / 2.0
        m[entry] = np.nan
        with pytest.raises(ValidationError, match="not Hermitian"):
            linalg.require_hermitian(m)
        with pytest.raises(ValidationError, match="not Hermitian"):
            linalg.require_density(m)


# --- hermitian_eigen ----------------------------------------------------------

def test_eigen_sigma_z():
    res = hermitian_eigen(SIGMA_Z)
    assert np.allclose(res.values, [1.0, -1.0], atol=0)


def test_eigen_rank_one_projector():
    res = hermitian_eigen((I2 + SIGMA_X) / 2.0)
    assert np.allclose(res.values, [1.0, 0.0], atol=1e-15)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(6))
def test_eigen_matches_charpoly_bisection(seed):
    m = random_hermitian(rng(100 + seed), 4)
    res = hermitian_eigen(m)
    oracle = eigenvalues_by_bisection(m)
    assert oracle.shape == (4,)
    assert np.abs(res.values - oracle).max() <= 1e-9


def test_eigen_reconstruction_sweep():
    for stream in range(1000):
        gen = rng(2024, stream)
        dim = int(gen.integers(2, 9))
        m = random_hermitian(gen, dim)
        res = hermitian_eigen(m)
        recon = (res.vectors * res.values) @ res.vectors.conj().T
        assert np.abs(recon - m).max() <= 1e-10
        assert np.abs(res.vectors.conj().T @ res.vectors - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(res.values) <= 1e-15)


def test_eigen_phase_convention_deterministic():
    m = random_hermitian(rng(7), 5)
    res = hermitian_eigen(m)
    for j in range(5):
        col = res.vectors[:, j]
        first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert first.real > 0.0
        assert abs(first.imag) <= 1e-12


# --- trace_norm ----------------------------------------------------------------

def test_trace_norm_paulis():
    assert trace_norm(SIGMA_Z) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(0.5 * SIGMA_Z) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_trace_norm_matches_singular_values(seed):
    m = random_hermitian(rng(300 + seed), 5)
    assert trace_norm(m) == pytest.approx(singular_values_by_squaring(m).sum(), abs=1e-9)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        trace_norm(np.array([[0.0, 2.0], [0.0, 0.0]]))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_trace_norm_dominates_trace(seed, dim):
    m = random_hermitian(rng(seed), dim)
    assert trace_norm(m) >= abs(np.trace(m).real) - 1e-12


# --- random generators ----------------------------------------------------------

def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar_random_unitary(4, 99)
    u2 = haar_random_unitary(4, 99)
    assert np.array_equal(u1, u2)
    assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() <= 1e-10
    assert not np.allclose(u1, haar_random_unitary(4, 100))


def test_haar_first_entry_moment():
    # Haar moment <|U_ij|^2> = 1/dim, Monte Carlo over 10^4 seeds at dim 2.
    total = sum(abs(haar_random_unitary(2, seed)[0, 0]) ** 2 for seed in range(10_000))
    assert abs(total / 10_000 - 0.5) <= 0.02


def test_random_density_rank_one_is_pure():
    rho = random_density(4, 1, 5)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_random_density_full_rank_spreads():
    rho = random_density(4, 4, 5)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > 1e-8


def test_random_density_rank_out_of_range():
    with pytest.raises(ValidationError):
        random_density(3, 4, 0)
    with pytest.raises(ValidationError):
        random_density(3, 0, 0)


def test_random_generators_postconditions_sweep():
    for stream in range(1000):
        gen = rng(77, stream)
        dim = int(gen.integers(1, 9))
        u = linalg.haar_unitary_from(gen, dim)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
        rank = int(gen.integers(1, dim + 1))
        rho = linalg.density_from(gen, dim, rank)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() >= -1e-10
        assert int((evals > 1e-9).sum()) == rank
