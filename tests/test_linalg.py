import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import haar_random_unitary, random_density

from duality import linalg
from duality.errors import ValidationError
from duality.linalg import SIGMA_X, SIGMA_Z, hermitian_eigen, rng, trace_norm

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


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_validation_rejects_empty_matrices(shape):
    with pytest.raises(ValidationError, match="size >= 1"):
        linalg.as_square(np.zeros(shape))


def marker_with_min_eigenvalue(low: float, seed: int) -> np.ndarray:
    """A Hermitian 3x3 matrix of trace one with eigenvalues (1 - low - 0.25, 0.25, low), in a random basis."""
    u = haar_random_unitary(3, seed)
    m = u @ np.diag([0.75 - low, 0.25, low]) @ u.conj().T
    return (m + m.conj().T) / 2.0


def test_density_check_names_the_first_matrix_past_the_psd_tolerance():
    # -0.9e-10 is inside the 1e-10 tolerance and -1.1e-10 outside it: the
    # Cholesky factorization of the shifted stack fails, and the eigenvalues
    # name the member and its minimum eigenvalue.
    stack = np.stack([marker_with_min_eigenvalue(-0.9e-10, 1), marker_with_min_eigenvalue(-1.1e-10, 2)])
    assert linalg.require_density(stack[0], "rho_d0") is not None
    with pytest.raises(ValidationError) as exc:
        linalg.require_density(stack, "rho_d0")
    assert str(exc.value) == "rho_d0[1] is not positive semidefinite (min eigenvalue -1.100e-10)"


def test_density_check_falls_back_to_the_eigenvalue_rule():
    # Shifted by 1e-10, this matrix is exactly singular, so its Cholesky
    # factorization fails; its minimum eigenvalue -1e-10 keeps the rule.
    m = np.diag([1.0 + 1e-10, -1e-10]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m + 1e-10 * np.eye(2))
    assert linalg.require_density(np.stack([I2 / 2.0, m]), "rho_d0").shape == (2, 2, 2)


def test_unitarity_test_fails_huge_entries_without_a_warning():
    # Their squares overflow to inf; pytest turns the overflow warning into an error.
    assert not linalg.is_unitary(np.array([[1e155, 0.0], [0.0, 1.0]]))
    assert not linalg.is_unitary(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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


def test_eigen_rejects_a_spectrum_beyond_the_float_range():
    # Finite entries whose top eigenvalue overflows: eigh returns
    # [inf, 1.5e291, -7.7e292] and [inf, 0] for them, without an error.
    spread, overflowing = np.full((3, 3), 1.7e308), np.full((2, 2), 1e308)
    with pytest.raises(ValidationError, match=r"^matrix has an eigenvalue beyond the float range$"):
        hermitian_eigen(spread)
    with pytest.raises(ValidationError, match=r"^matrix has an eigenvalue beyond the float range$"):
        hermitian_eigen(overflowing)
    with pytest.raises(ValidationError, match=r"^matrix\[1\] has an eigenvalue"):
        hermitian_eigen(np.stack([np.eye(2), overflowing]))
    assert hermitian_eigen(np.diag([1.7e308, -1.7e308])).values.tolist() == [1.7e308, -1.7e308]


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


def hermitian_eigen_column_by_column(m: np.ndarray):
    """Reference for one matrix: sort descending, then fix each column's
    phase by its first component above 1e-12, with numpy scalar arithmetic."""
    evals, evecs = np.linalg.eigh(m)
    order = np.argsort(evals)[::-1]
    evals = np.ascontiguousarray(evals[order])
    evecs = np.ascontiguousarray(evecs[:, order])
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        evecs[:, j] = col * (pivot.conjugate() / abs(pivot))
    return evals, evecs


def test_stacked_eigen_equals_the_column_by_column_reference():
    # Bit for bit: the vectorized phase fix must round as the loop does.
    # np.abs on a complex pivot rounds differently from abs() on rare
    # inputs, among them the three pure states below.
    pure = np.array([random_density(3, 1, seed) for seed in (12013, 13882, 16654)])
    for dim in range(1, 9):
        gen = rng(31, dim)
        g = gen.standard_normal((500, dim, dim)) + 1j * gen.standard_normal((500, dim, dim))
        stack = g + np.conj(np.swapaxes(g, -1, -2))
        if dim == 3:
            stack = np.concatenate([pure, stack])
        res = hermitian_eigen(stack)
        for m, values, vectors in zip(stack, res.values, res.vectors):
            ref_values, ref_vectors = hermitian_eigen_column_by_column(m)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(vectors, ref_vectors)


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


def test_trace_norm_rejects_a_norm_beyond_the_float_range():
    # Finite eigenvalues whose absolute values sum past the float range: the
    # sum overflowed to inf with a RuntimeWarning.
    with pytest.raises(ValidationError, match=r"^matrix has a trace norm beyond the float range$"):
        trace_norm(np.diag([1e308, 1e308]))
    with pytest.raises(ValidationError, match=r"^matrix\[1\] has a trace norm"):
        trace_norm(np.stack([np.eye(2), np.diag([1.7e308, -1.7e308]), np.diag([1e308, 1e308])]))
    assert trace_norm(np.diag([1e308, -1e307])) == 1.1e308


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


# --- Philox streams ------------------------------------------------------------------

def fresh_philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def draw_mix(gen: np.random.Generator, stop: int) -> list:
    """Draws of every kind a sweep takes, stopped after ``stop`` of them, so
    the generator can be left with a partly used buffer or a pending 32-bit half."""
    draws = [gen.random(2), gen.uniform(0.05, 0.7), gen.standard_normal((2, 3, 3)),
             gen.integers(2, 9), gen.standard_normal(5), gen.integers(2, 4), gen.random()]
    return [np.asarray(d).tolist() for d in draws[:stop]]


def test_rekeyed_streams_equal_fresh_philox():
    streams = linalg.PhiloxStreams(2024)
    for stream in range(2000):
        stop = stream % 8
        assert draw_mix(streams(stream), stop) == draw_mix(fresh_philox(2024, stream), stop)


def test_rekey_after_a_stream_stopped_mid_buffer():
    streams = linalg.PhiloxStreams(5)
    for stream in range(200):
        # integers below 2**32 take 32-bit halves and leave one pending; a
        # single double leaves three words of the four-word Philox buffer.
        gen = streams(stream)
        gen.integers(2, 5)
        gen.random()
        gen = streams(stream + 1)
        assert draw_mix(gen, 7) == draw_mix(fresh_philox(5, stream + 1), 7)
        assert draw_mix(streams(stream + 1), 7) == draw_mix(rng(5, stream + 1), 7)


def test_rekeyed_streams_cover_the_full_key_range():
    top = 2 ** 64 - 1
    streams = linalg.PhiloxStreams(top)
    for stream in (0, 1, top, np.uint64(7)):
        assert draw_mix(streams(stream), 7) == draw_mix(fresh_philox(top, int(stream)), 7)


@pytest.mark.parametrize("value", [2 ** 64, -1, True, False, 1.0, 2.5, "3", None])
def test_rng_rejects_out_of_range_keys(value):
    # Masking to 64 bits would make seed 2**64 replay seed 0, and stream -1
    # replay stream 2**64 - 1.
    with pytest.raises(ValidationError, match="seed"):
        rng(value, 0)
    with pytest.raises(ValidationError, match="stream"):
        rng(0, value)
    with pytest.raises(ValidationError, match="seed"):
        linalg.PhiloxStreams(value)
    with pytest.raises(ValidationError, match="stream"):
        linalg.PhiloxStreams(0)(value)
